"""Time the solver's column kernels against the numpy calls they replace.

    python3 tools/kernel_crossover.py [--repeats 9] [--rows 2,4,8,...,4096] \
        [--seed 0] [--out FILE]

Run from the repository root; it imports `routelearn` from `src/`, and
otherwise only the standard library and numpy. `OPENBLAS_NUM_THREADS=1` is
set before numpy loads.

The kernels, each timed with its row threshold lifted so it always runs,
against the numpy call it stands in for:

- `graph._columnwise`'s row reductions over k columns: `row_min` and
  `row_max` against `np.minimum.reduce` and `np.maximum.reduce` (k = 2, 3,
  5, 8, 20, 40), `row_any` against `a.any(axis=1)` (k = 2, 3, 5, 9, 40),
  and `row_sum` against `np.add.reduce` (k = 1 to 7);
- `equilibrium._column_adds` on 0/1 matrices whose rows hold two ones,
  against `np.matvec` (2, 3, 5 and 8 outputs), and `equilibrium._gram` on
  k routes of two edges each, against the stacked matrix product it
  replaces (k = 2, 3 and 4).

For each kernel, column count and row count n, a round times both calls on
the same n-row input, the two in turns, each repeated for about a
millisecond; `--repeats` rounds alternate which call goes first. Prints one
line per kernel and column count to standard error, giving the median
kernel/numpy time ratio at each row count and the crossover: the smallest
row count from which the kernel is faster at every larger count measured
(rows a column for the reductions, whose thresholds count those). The JSON
summary goes to standard output (and to `--out`).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROWS = "2,4,8,16,32,64,128,256,512,1024,4096"
TRIAL_S = 1e-3  # time a call is repeated for, a round


def per_call(f, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        f()
    return (time.perf_counter() - t0) / reps


def ratio(kernel, numpy_call, repeats: int) -> float:
    """Median over rounds of the kernel's time a call over numpy's."""
    kernel(), numpy_call()
    reps = max(1, int(TRIAL_S / max(per_call(numpy_call, 3), per_call(kernel, 3))))
    ratios = []
    for r in range(repeats):
        pair = (kernel, numpy_call) if r % 2 == 0 else (numpy_call, kernel)
        t = {f: per_call(f, reps) for f in pair}
        ratios.append(t[kernel] / t[numpy_call])
    return statistics.median(ratios)


def crossover(rows: list[int], ratios: list[float]) -> int | None:
    """The smallest row count from which every ratio is below 1."""
    best = None
    for n, q in zip(reversed(rows), reversed(ratios)):
        if q >= 1.0:
            break
        best = n
    return best


def cases(rng, np, graph, equilibrium):
    """Yields (kernel, column count, whether its threshold counts rows a column,
    make), where make(n) returns the kernel call and the numpy call on n rows."""

    def reduction(ufunc, k, start=None, columns=8, boolean=False):
        def make(n):
            a = rng.normal(size=(n, k))
            a = a > 0.0 if boolean else a
            return (
                lambda: graph._columnwise(ufunc, a, 0, columns, start),
                lambda: ufunc.reduce(a, axis=1),
            )

        return make

    def two_ones(n_out, n_in):
        m = np.zeros((n_out, n_in))
        for j in range(n_out):
            m[j, rng.choice(n_in, size=2, replace=False)] = 1.0
        return m

    def matvec(n_out):
        m = two_ones(n_out, n_out)

        def make(n):
            x = rng.random((n, n_out))
            return lambda: equilibrium._column_adds(m, x), lambda: np.matvec(m, x)

        return make

    def gram(k):
        inc = two_ones(k, 2 * k).T.copy()  # k routes of two edges each, 2k edges

        def make(n):
            slope = rng.random((n, inc.shape[0]))
            return (
                lambda: equilibrium._gram(inc, slope),
                lambda: inc.T @ (slope[:, :, None] * inc),
            )

        return make

    for k in (2, 3, 5, 8, 20, 40):
        yield "row_min", k, True, reduction(np.minimum, k)
        yield "row_max", k, True, reduction(np.maximum, k)
    for k in (2, 3, 5, 9, 40):
        yield "row_any", k, True, reduction(np.logical_or, k, boolean=True)
    for k in range(1, 8):
        yield "row_sum", k, True, reduction(np.add, k, start=0.0, columns=7)
    for k in (2, 3, 5, 8):
        yield "incidence_product", k, False, matvec(k)
    for k in (2, 3, 4):
        yield "gram", k, False, gram(k)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--rows", default=ROWS, help="comma-separated row counts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the JSON here")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    rows = [int(n) for n in args.rows.split(",")]

    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
    sys.path[:0] = ["src"]
    import numpy as np

    from routelearn import equilibrium, graph

    equilibrium._COLUMN_ADD_ROWS = 0  # the kernel runs at every row count
    rng = np.random.default_rng(args.seed)
    results = []
    for name, k, per_column, make in cases(rng, np, graph, equilibrium):
        ratios = []
        for n in rows:
            kernel, numpy_call = make(n)
            if kernel() is None:
                raise SystemExit(f"{name}, {k} columns: the kernel declined its input")
            ratios.append(ratio(kernel, numpy_call, args.repeats))
        cross = crossover(rows, ratios)
        unit = "rows a column" if per_column else "rows"
        if per_column:
            cross = None if cross is None else cross / k
        results.append(
            {
                "kernel": name,
                "columns": k,
                "rows": rows,
                "ratio_kernel_over_numpy": [round(q, 3) for q in ratios],
                "crossover": cross,
                "crossover_unit": unit,
            }
        )
        shown = " ".join(f"{n}:{q:.2f}" for n, q in zip(rows, ratios))
        print(f"{name:>17} k={k:<2} crossover {cross} {unit}; ratios {shown}", file=sys.stderr)

    summary = {
        "tool": "tools/kernel_crossover.py",
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "repeats": args.repeats,
        "seed": args.seed,
        "ratio": "median over rounds of the kernel's time a call over numpy's",
        "results": results,
    }
    text = json.dumps(summary, indent=2)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
