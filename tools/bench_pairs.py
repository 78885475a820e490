"""Parent-against-change pairs of bench/run.py, written as one BENCH_N.json.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_N.json \
        --workload enumerate-three-edge:10:1301 --workload batch-three-edge:5:1311 \
        [--trace batch-three-edge:1331] [--note TEXT] [--workdir DIR]

Run from anywhere inside the repository; only the standard library is used.
Every run extracts a fresh `git archive` of its commit into a scratch
directory (`--workdir`, or a temporary directory that is removed at the
end), runs

    OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload W --seed N \
        --seconds S --trace 0

there and deletes the copy. S is BENCHMARK.json's `run_seconds`, the same
for both sides. `--workload NAME:PAIRS:SEED` asks for PAIRS
pairs on seeds SEED, SEED + 1, ...; both sides of a pair use the same seed
and run back to back, the parent first in even pairs and the change first
in odd ones. Workloads run in the order given.

The output holds, per workload, the parent's and the change's quartiles of
each end-to-end metric that BENCHMARK.json names (linear interpolation),
the pairs the change wins, the per-pair change/parent ratios and whether
the claim rule holds: the change wins at least 9 in 10 of the pairs and the
medians differ, in the better direction, by more than the parent's quartile
distance. `runs` lists every run with the wall time of each round, read
from its standard error. `--trace W:N` adds one `--trace 1` run per side,
parent first, under `traced`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROUND_LINE = re.compile(r"^round \d+(?: traced)?: .* in ([0-9.]+) s wall", re.MULTILINE)
SIDES = ("parent", "change")


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, check=True).stdout


def extract(repo: Path, commit: str, dest: Path) -> None:
    """A fresh copy of the committed files of `commit` at `dest`."""
    archive = git(repo, "archive", "--format=tar", commit)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def bench_run(repo: Path, commit: str, workdir: Path, workload: str, seed: int,
              seconds: float, trace: int) -> dict:
    """One bench/run.py run from a fresh archive; its exit code, rounds and result."""
    copy = Path(tempfile.mkdtemp(prefix="bench-", dir=workdir))
    try:
        extract(repo, commit, copy)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", str(trace)],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
        sys.stderr.write(proc.stderr[-2000:])
    return {
        "exit_code": proc.returncode,
        "round_wall_s": [float(x) for x in ROUND_LINE.findall(proc.stderr)],
        "result": result,
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles per side, pairs won, per-pair ratios and the claim rule."""
    sign = 1.0 if better == "higher" else -1.0
    qp, qc = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (qc["median"] - qp["median"])
    return {
        "better": better,
        "parent": qp,
        "change": qc,
        "change_wins": wins,
        "median_change_pct": 100.0 * (qc["median"] / qp["median"] - 1.0) if qp["median"] else None,
        "pair_ratios": [round(c / p, 4) if p else None for p, c in zip(parent, change)],
        "clears_rule": 10 * wins >= 9 * len(parent) and gain > qp["q3"] - qp["q1"],
    }


def summarize(runs: list[dict], seeds: list[int], metrics: dict[str, str]) -> dict:
    side_runs = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"]) for s in SIDES}
    done = all(r["result"] for r in runs)
    out = {
        "pairs": len(seeds),
        "seeds": seeds,
        "correct": done and all(r["result"]["correct"] for r in runs),
        "failed": {s: sum(r["result"]["failed"] for r in side_runs[s] if r["result"]) for s in SIDES},
        "attempted": {s: sum(r["result"]["attempted"] for r in side_runs[s] if r["result"]) for s in SIDES},
    }
    if not done:
        return out  # a run that printed no result has no metrics to compare
    for name, better in metrics.items():
        values = {s: [r["result"]["metrics"][name]["value"] for r in side_runs[s]] for s in SIDES}
        out[name] = compare(values["parent"], values["change"], better)
    out["median_round_wall_s"] = {
        s: quartiles([statistics.median(r["round_wall_s"]) for r in side_runs[s] if r["round_wall_s"]])
        for s in SIDES
    }
    return out


def workload_spec(text: str) -> tuple[str, int, int]:
    name, pairs, seed = text.rsplit(":", 2)
    return name, int(pairs), int(seed)


def trace_spec(text: str) -> tuple[str, int]:
    name, seed = text.rsplit(":", 1)
    return name, int(seed)


def host_text() -> str:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True,
    ).stdout.strip()
    return f"{os.cpu_count()}-core host, Python {platform.python_version()}, numpy {numpy}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True, type=workload_spec,
                        help="NAME:PAIRS:FIRST_SEED, repeatable")
    parser.add_argument("--trace", type=trace_spec, default=None, help="NAME:SEED")
    parser.add_argument("--note", default="")
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)

    repo = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel").decode().strip())
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    commits = {s: git(repo, "rev-parse", f"{rev}^{{commit}}").decode().strip()
               for s, rev in zip(SIDES, (args.parent, args.change))}
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    workdir.mkdir(parents=True, exist_ok=True)

    def one(side: str, workload: str, seed: int, trace: int) -> dict:
        run = bench_run(repo, commits[side], workdir, workload, seed, seconds, trace)
        value = run["result"] and run["result"]["metrics"].get("equilibria_per_s", {}).get("value")
        print(f"{workload} seed {seed} {side}: exit {run['exit_code']}, "
              f"{len(run['round_wall_s'])} rounds, equilibria_per_s {value}", file=sys.stderr)
        return run

    try:
        runs, summary = [], {}
        for workload, pairs, first in args.workload:
            seeds = list(range(first, first + pairs))
            mine = []
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    run = one(side, workload, seed, 0)
                    mine.append({"workload": workload, "side": side, "seed": seed,
                                 "run_seconds": seconds, "pair": pair, "position_in_pair": position,
                                 **run, "commit": commits[side][:7]})
            runs += mine
            summary[workload] = summarize(mine, seeds, metrics)

        traced = None
        if args.trace:
            workload, seed = args.trace
            traced = {"workload": workload, "seed": seed}
            traced |= {side: one(side, workload, seed, 1)["result"] for side in SIDES}
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    plan = "; ".join(f"{w} {p} pairs on seeds {s}-{s + p - 1}" for w, p, s in args.workload)
    description = (
        "Parent against change on bench/run.py, pairs alternating which side runs first, run "
        f"back to back. Each run: OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload W "
        f"--seed N --seconds {seconds:g} --trace 0, from a fresh git archive of its commit "
        f"(tools/bench_pairs.py). Workloads and seeds: {plan}. round_wall_s lists the wall time "
        "of every round from the run's standard error. Quartiles are linear-interpolation "
        "percentiles of the per-run values; change_wins counts the pairs whose change run is "
        "better; pair_ratios is change over parent per pair; clears_rule is true when the change "
        "wins at least 9 in 10 of the pairs and the medians differ, in the better direction, by "
        "more than the parent's quartile distance."
    )
    if traced:
        description += (
            f" traced holds one --trace 1 run of {traced['workload']} per side (seed "
            f"{traced['seed']}, {seconds:g} s, parent first); its per-layer values are per traced round."
        )
    report = {
        "description": description,
        "note": args.note,
        "host": host_text(),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "summary": summary,
        "traced": traced,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
