"""Interleaved benchmark rounds of two commits in one process.

    python3 tools/interleave_rounds.py --parent REV --change REV \
        --workload W --rounds N [--seed S]

Run from anywhere inside the repository. Separate benchmark runs of two
commits see the shared host's speed drift between them; rounds alternated
within one process see the same drift. Each commit is extracted with `git
archive`, and its `src/routelearn` is copied under its own package name,
`routelearn_parent` and `routelearn_change`, so that both load side by side.
That works only for a package that imports itself by relative imports, which
is checked on the source before loading and on `sys.modules` after each
round.

The rounds are those of `bench/workloads.py` (the change's copy, read only)
for workload W and seed S (default 0): the same command lines, passed to
each side's `cli.main`. Round 0 runs once per side untimed, since it loads
what the commands import. Rounds 1 to N then run on both sides, in the
order parent, change in odd rounds and change, parent in even ones, with
`OPENBLAS_NUM_THREADS=1` set before numpy loads. Each round records wall
time and CPU time (user plus system, of this process and of the children
it reaped, such as a batch's process pool). After every round the two
sides' standard output and output files are compared byte for byte.

Prints one line per round and a JSON summary: per side the quartiles of
round wall and CPU time, and per measure the median of the per-round
change/parent ratios, their quartiles and the rounds the change won. Exits
1 if a command failed or an output differed, else 0.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from common import SIDES, cpu_seconds, extract, resolve

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

PACKAGE = "routelearn"


def absolute_imports(package: Path) -> list[str]:
    """Import statements in the package's sources that name the package absolutely."""
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == PACKAGE or n.startswith(PACKAGE + ".") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def run_round(cli, commands: list[list[str]]) -> dict:
    """Wall and CPU time, exit codes and standard output of one round's commands."""
    buf, codes = io.StringIO(), []
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for argv in commands:
        try:
            with contextlib.redirect_stdout(buf):
                codes.append(cli.main(argv))
        except Exception as exc:  # a crash is a failed command, reported below
            codes.append(f"{type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return {"wall": wall, "cpu": cpu, "codes": codes, "stdout": buf.getvalue()}


def outputs(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    repo, commits = resolve(args.parent, args.change)
    work = Path(tempfile.mkdtemp(prefix="interleave-"))
    here = Path.cwd()
    try:
        packages = work / "packages"
        for side, commit in commits.items():
            extract(repo, commit, work / f"{side}-src")
            shutil.copytree(work / f"{side}-src" / "src" / PACKAGE, packages / f"{PACKAGE}_{side}")
            if found := absolute_imports(packages / f"{PACKAGE}_{side}"):
                sys.exit(f"{side} imports {PACKAGE} absolutely at {', '.join(found)}")
        sys.path[:0] = [str(packages), str(work / "change-src" / "bench")]
        clis = {s: importlib.import_module(f"{PACKAGE}_{s}.cli") for s in SIDES}
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        (work / "run").mkdir()
        workload = WORKLOADS[args.workload](args.seed, work / "run")

        def one(side: str, r: int) -> dict:
            os.chdir(work / side)
            commands, _ = workload.round(r, Path(f"round{r}"), False)
            got = run_round(clis[side], commands)
            got["files"] = outputs(work / side / f"round{r}")
            shutil.rmtree(work / side / f"round{r}", ignore_errors=True)
            if PACKAGE in sys.modules:
                sys.exit(f"{side} loaded the {PACKAGE} package by its own name")
            return got

        for side in SIDES:
            (work / side).mkdir()
            one(side, 0)
        times = {s: {"wall": [], "cpu": []} for s in SIDES}
        failures = []
        for r in range(1, args.rounds + 1):
            got = {s: one(s, r) for s in (SIDES if r % 2 else SIDES[::-1])}
            for side in SIDES:
                times[side]["wall"].append(got[side]["wall"])
                times[side]["cpu"].append(got[side]["cpu"])
                failures += [f"round {r} {side}: exit {c}" for c in got[side]["codes"] if c != 0]
            p, c = got["parent"], got["change"]
            differ = [k for k in sorted(set(p["files"]) | set(c["files"]))
                      if p["files"].get(k) != c["files"].get(k)]
            if p["stdout"] != c["stdout"]:
                differ.append("stdout")
            failures += [f"round {r}: {k} differs" for k in differ]
            print(f"round {r}: wall {p['wall']:.4f} / {c['wall']:.4f} s, cpu {p['cpu']:.4f} / "
                  f"{c['cpu']:.4f} s (parent / change), {len(p['files'])} files "
                  f"{'differ' if differ else 'identical'}", file=sys.stderr, flush=True)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)

    summary = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
               "parent": commits["parent"], "change": commits["change"]}
    for measure in ("wall", "cpu"):
        ratios = [c / p for p, c in zip(times["parent"][measure], times["change"][measure])]
        summary[measure] = {
            "parent_quartiles_s": quartiles(times["parent"][measure]),
            "change_quartiles_s": quartiles(times["change"][measure]),
            "median_ratio": statistics.median(ratios),
            "ratio_quartiles": quartiles(ratios),
            "change_wins": sum(x < 1.0 for x in ratios),
        }
    summary["failures"] = failures
    print(json.dumps(summary, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
