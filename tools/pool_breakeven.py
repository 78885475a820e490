"""Wall and CPU time of `monte_carlo` as one block against two, by seed count.

    python3 tools/pool_breakeven.py [--repeats 9] [--counts 4,16,64,128,256,512,1024] \
        [--seed 0] [--out FILE]

Run from the repository root; it imports `routelearn` from `src/` and the
benchmark's Wheatstone table (`bench/reference.wheatstone_table`), and
otherwise only the standard library. `OPENBLAS_NUM_THREADS=1` is set
before numpy loads.

For each table (`three-edge` and the Wheatstone table) and each seed count
n, it runs `monte_carlo` on seeds seed .. seed + n - 1 with `workers` 1 and
2. The block floor `dynamics._MIN_BLOCK_SEEDS` is set to 1 here, so
`workers=2` always splits the seeds into two blocks and starts one pool
process; the output is what that split costs or saves at each count, which
is the measurement the floor is set from. Each call is timed for wall time
and for CPU time: user plus system, of this process and of the children it
reaped, which includes the pool's process once the pool has shut down.

One untimed call per table and side loads what the calls import. Then
`--repeats` rounds run every point, the two sides back to back, `workers=1`
first in even rounds and `workers=2` first in odd ones. Prints one line
per point to standard error and a JSON summary to standard output (and to
`--out`): per point, each side's quartiles of wall and CPU seconds, and
the median and quartiles of the per-round two-block/one-block ratios.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SIDES = (1, 2)  # the worker counts compared


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    return sum(
        ru.ru_utime + ru.ru_stime
        for ru in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def timed(monte_carlo, scenario, seeds: list[int], workers: int) -> tuple[float, float]:
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    monte_carlo(scenario, seeds, workers=workers)
    return time.perf_counter() - wall0, cpu_seconds() - cpu0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument(
        "--counts", default="4,16,64,128,256,512,1024", help="comma-separated seed counts"
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed of every batch")
    parser.add_argument("--out", type=Path, default=None, help="also write the JSON here")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 for quartiles")
    counts = [int(c) for c in args.counts.split(",")]

    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
    sys.path[:0] = ["src", "bench"]
    import reference
    from routelearn import dynamics, load_scenario, scenario_from_dict

    dynamics._MIN_BLOCK_SEEDS = 1  # every workers=2 call makes two blocks
    tables = {
        "three-edge": load_scenario("three-edge"),
        "wheatstone": scenario_from_dict(reference.wheatstone_table().to_scenario()),
    }
    for scenario in tables.values():
        for workers in SIDES:
            timed(dynamics.monte_carlo, scenario, [args.seed, args.seed + 1], workers)

    samples = {(t, n, w): ([], []) for t in tables for n in counts for w in SIDES}
    for r in range(args.repeats):
        for name, scenario in tables.items():
            for n in counts:
                seeds = list(range(args.seed, args.seed + n))
                for workers in SIDES if r % 2 == 0 else SIDES[::-1]:
                    wall, cpu = timed(dynamics.monte_carlo, scenario, seeds, workers)
                    samples[name, n, workers][0].append(wall)
                    samples[name, n, workers][1].append(cpu)
        print(f"round {r + 1} of {args.repeats} done", file=sys.stderr)

    points = []
    for name in tables:
        for n in counts:
            point = {"table": name, "seeds": n}
            for measure, k in (("wall_s", 0), ("cpu_s", 1)):
                one, two = samples[name, n, 1][k], samples[name, n, 2][k]
                ratios = [b / a for a, b in zip(one, two)]
                point[measure] = {
                    "workers_1": quartiles(one),
                    "workers_2": quartiles(two),
                    "ratio_2_over_1": quartiles(ratios),
                    "rounds_2_faster": sum(b < a for a, b in zip(one, two)),
                }
            points.append(point)
            print(
                f"{name:>10} {n:4d} seeds: wall x{point['wall_s']['ratio_2_over_1'][1]:.2f}, "
                f"cpu x{point['cpu_s']['ratio_2_over_1'][1]:.2f} (two blocks over one, medians)",
                file=sys.stderr,
            )

    summary = {
        "tool": "tools/pool_breakeven.py",
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "repeats": args.repeats,
        "first_seed": args.seed,
        "quartiles": "25th, 50th and 75th percentiles, inclusive method",
        "points": points,
    }
    text = json.dumps(summary, indent=2)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
