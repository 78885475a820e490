"""Benchmark of the routelearn CLI: three closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from `src/` without
installing it. Each run repeats whole rounds of its workload's commands
for about S seconds, checks every round's outputs against references
computed apart from the program (bench/reference.py), and prints one JSON
line last: `correct`, `attempted` and `failed` commands, and the metrics.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 rounds
alternate between untraced and traced (bench/tracing.py); the per-layer
metrics come from the traced rounds, per traced round, and the spans are
written to bench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "equilibria_per_s": "1/s",
    "cpu_us_per_equilibrium": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "equilibrium.solve_wardrop.calls": "count",
    "equilibrium.solve_wardrop.total_s": "s",
    "equilibrium.solve_wardrop.p50_us": "us",
    "equilibrium.solve_wardrop.p99_us": "us",
    "equilibrium.fw_iterations_per_call": "count",
    "equilibrium.solve_wardrop_batch.rows": "count",
    "equilibrium.solve_wardrop_batch.total_s": "s",
    "equilibrium.solve_wardrop_batch.us_per_row": "us",
    "belief.bayes_update.calls": "count",
    "belief.bayes_update.total_s": "s",
    "belief.bayes_update.p50_us": "us",
    "belief.log_likelihoods.total_s": "s",
    "dynamics.noise_sample.total_s": "s",
    "dynamics.realize_costs.total_s": "s",
    "graph.used_edges.total_s": "s",
    "dynamics.step.self_s": "s",
    "dynamics.run.self_s": "s",
    "dynamics.run.p50_ms": "ms",
    "dynamics.run.p95_ms": "ms",
    "dynamics.stages_per_seed": "count",
    "dynamics.write_trajectory_csv.total_s": "s",
    "dynamics.csv_bytes": "bytes",
    "dynamics.monte_carlo.self_s": "s",
    "process.cpu_over_wall": "ratio",
    "analysis.enumerate_rest_points.total_s": "s",
    "analysis.enumerate_rest_points.self_s": "s",
    "analysis.grid_generation_s": "s",
    "analysis.boundary_solves": "count",
    "analysis.check_complete_learning_conditions.total_s": "s",
    "analysis.check_rest_point.total_s": "s",
    "graph.is_series_parallel.total_s": "s",
    "scenario.load_scenario.total_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_pct": "%",
}

MIN_ROUNDS = 2
SETUP_REPEATS = 7

# Timed in a fresh interpreter: import routelearn, load and validate the scenario.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import routelearn
routelearn.load_scenario(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any reaped child."""
    kb = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def measure_setup(scenario: str) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), scenario],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class Round:
    """Wall time, CPU time, equilibria and outcome of one round."""

    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    equilibria: int = 0
    attempted: int = 0
    failed: int = 0
    stdout_bytes: int = 0

    @property
    def rate(self) -> float:
        return self.equilibria / self.wall


def run_round(cli, commands: list[list[str]], traced: bool) -> Round:
    rnd = Round(traced)
    for argv in commands:
        rnd.attempted += 1
        buf = io.StringIO()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        rnd.wall += time.perf_counter() - t0
        rnd.cpu += cpu_seconds() - cpu0
        rnd.stdout_bytes += len(buf.getvalue().encode())
        if code != 0:
            print(f"routelearn {' '.join(argv)} exited {code}", file=sys.stderr)
            rnd.failed += 1
    return rnd


def best_half_mean(values, best=max) -> float:
    """Mean of the better half (rounded up) of the values."""
    ranked = sorted(values, reverse=best is max)
    half = ranked[: (len(ranked) + 1) // 2]
    return sum(half) / len(half) if half else 0.0


def end_to_end(rounds: list[Round], setup: float, rss: float) -> dict:
    """Timed metrics come from the less disturbed half of the rounds.

    The host is shared, and other tenants' load slows whole stretches of a
    run by 15-50 % (CPU time per equilibrium rises with wall time). Such
    contention only ever makes a round slower, so the faster half of the
    rounds estimates what the program itself costs, and averaging that
    half keeps one lucky round from setting the figure.
    """
    done = [r for r in rounds if r.equilibria]
    return {
        "setup_s": setup,
        "equilibria_per_s": best_half_mean(r.rate for r in done),
        "cpu_us_per_equilibrium": best_half_mean((1e6 * r.cpu / r.equilibria for r in done), min),
        "peak_rss_mb": rss,
    }


def per_layer(stats, rounds: list[Round], grid_s: float, output_bytes: int) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)

    def best_rate(rs):
        return best_half_mean(r.rate for r in rs if r.equilibria)

    def ratio(a, b):
        return a / b if b else 0.0

    sw, swb = "equilibrium.solve_wardrop", "equilibrium.solve_wardrop_batch"
    rows = stats.value_sum(swb)
    runs = stats.calls("dynamics.run")
    return {
        f"{sw}.calls": stats.calls(sw) / n,
        f"{sw}.total_s": stats.total(sw) / n,
        f"{sw}.p50_us": 1e6 * stats.percentile(sw, 50),
        f"{sw}.p99_us": 1e6 * stats.percentile(sw, 99),
        "equilibrium.fw_iterations_per_call": ratio(stats.value_sum(sw), stats.calls(sw)),
        f"{swb}.rows": rows / n,
        f"{swb}.total_s": stats.total(swb) / n,
        f"{swb}.us_per_row": 1e6 * ratio(stats.total(swb), rows),
        "belief.bayes_update.calls": stats.calls("belief.bayes_update") / n,
        "belief.bayes_update.total_s": stats.total("belief.bayes_update") / n,
        "belief.bayes_update.p50_us": 1e6 * stats.percentile("belief.bayes_update", 50),
        "belief.log_likelihoods.total_s": stats.total("belief.log_likelihoods") / n,
        "dynamics.noise_sample.total_s": stats.total("dynamics.noise_sample") / n,
        "dynamics.realize_costs.total_s": stats.total("dynamics.realize_costs") / n,
        "graph.used_edges.total_s": stats.total("graph.used_edges") / n,
        "dynamics.step.self_s": stats.self_total("dynamics.step") / n,
        "dynamics.run.self_s": stats.self_total("dynamics.run") / n,
        "dynamics.run.p50_ms": 1e3 * stats.percentile("dynamics.run", 50),
        "dynamics.run.p95_ms": 1e3 * stats.percentile("dynamics.run", 95),
        "dynamics.stages_per_seed": ratio(stats.value_sum("dynamics.run"), runs),
        "dynamics.write_trajectory_csv.total_s": stats.total("dynamics.write_trajectory_csv") / n,
        "dynamics.csv_bytes": stats.value_sum("dynamics.write_trajectory_csv") / n,
        "dynamics.monte_carlo.self_s": stats.self_total("dynamics.monte_carlo") / n,
        "process.cpu_over_wall": ratio(sum(r.cpu for r in plain), sum(r.wall for r in plain)),
        "analysis.enumerate_rest_points.total_s": stats.total("analysis.enumerate_rest_points") / n,
        "analysis.enumerate_rest_points.self_s": stats.self_total("analysis.enumerate_rest_points") / n,
        "analysis.grid_generation_s": grid_s / n,
        "analysis.boundary_solves": stats.under.get((sw, "analysis.enumerate_rest_points"), 0) / n,
        "analysis.check_complete_learning_conditions.total_s":
            stats.total("analysis.check_complete_learning_conditions") / n,
        "analysis.check_rest_point.total_s": stats.total("analysis.check_rest_point") / n,
        "graph.is_series_parallel.total_s": stats.total("graph.is_series_parallel") / n,
        "scenario.load_scenario.total_s": stats.total("scenario.load_scenario") / n,
        "cli.self_s": stats.self_total("cli.main") / n,
        "cli.output_bytes": output_bytes / n,
        "trace.overhead_pct": 100.0 * (ratio(best_rate(plain), best_rate(traced)) - 1.0),
    }


def time_grid_generation(n_states: int, grid_ns: list[int]) -> float:
    """The simplex grid generator alone, at the chunk size enumeration uses."""
    from routelearn import analysis

    if not grid_ns:
        return 0.0
    chunk = inspect.signature(analysis.enumerate_rest_points).parameters["chunk_size"].default
    t0 = time.perf_counter()
    for g in grid_ns:
        for _ in analysis._simplex_grid_chunks(n_states, g, chunk):
            pass
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "routelearn" / "__init__.py").is_file():
        print(f"routelearn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import routelearn.cli as cli
    import reference
    from tracing import SpanStats, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    run_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    tracer = Tracer() if trace else None

    rounds: list[Round] = []
    correct = True
    grid_s, output_bytes = 0.0, 0
    start = time.perf_counter()
    # Start a round only if it should end within --seconds, judging by the last.
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - start + rounds[-1].wall <= args.seconds
    ):
        index = len(rounds)
        traced = trace and index % 2 == 1
        out_dir = run_dir / f"round{index}"
        commands, inp = workload.round(index, out_dir, trace)
        if traced:
            tracer.install()
        try:
            rnd = run_round(cli, commands, traced)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(rnd)
        if not rnd.failed:
            out = workload.read(out_dir, inp)
            rnd.equilibria = workload.equilibria(out, inp)
            print(
                f"round {index}{' traced' if traced else ''}: {rnd.equilibria} equilibria "
                f"in {rnd.wall:.3f} s wall, {rnd.cpu:.3f} s CPU",
                file=sys.stderr,
            )
            for failure in reference.run_checks(workload.name, out, inp, workload.table):
                print(f"round {index}: check failed: {failure}", file=sys.stderr)
                correct = False
            if traced:
                output_bytes += rnd.stdout_bytes + sum(
                    p.stat().st_size for p in out_dir.glob("*.json")
                )
                grid_s += time_grid_generation(len(workload.table.states), workload.grids(inp))
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if not any(r.equilibria for r in rounds):
        print("no round completed", file=sys.stderr)
        return 1
    if trace:
        tracer.write(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.csv")
        values = per_layer(SpanStats(tracer.spans), rounds, grid_s, output_bytes)
        units = PER_LAYER
    else:
        rss = peak_rss_mb()  # read before the set-up probes add children
        values = end_to_end(rounds, measure_setup(workload.scenario), rss)
        units = END_TO_END
    shutil.rmtree(run_dir)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
