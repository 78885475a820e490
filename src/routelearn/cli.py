"""Command-line interface: run, batch, enumerate, and check subcommands.

Exit codes: 0 on success, 2 on scenario/validation failure, 3 on solver
failure. Every emitted summary embeds the tool version plus the tolerances
and convergence parameters in force, and `run` re-emits the fully resolved
scenario so outputs alone determine replays. Each command imports the
stage loop (`dynamics`) or the rest-point code (`analysis`) when it runs,
so a command loads only what it uses.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ScenarioError, SolverError
from .scenario import (
    BUILTIN_NAMES,
    Scenario,
    load_scenario,
    scenario_to_dict,
)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _nonfinite(value, path: str = "") -> str | None:
    """The path of the first float in `value`, in written order, that is not finite."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in sorted(value.items()))
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next((found for p, v in items if (found := _nonfinite(v, p)) is not None), None)


def _write_json(path: Path, payload: dict) -> None:
    """Write `payload` as strict JSON; a value that is not finite is a
    ValueError naming its field, and nothing is written."""
    payload = _jsonable(payload)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        field = _nonfinite(payload)
        if field is None:
            raise
        raise ValueError(
            f"{field}: not finite, so {path.name} is not written; "
            "scenario values near the float range can overflow"
        ) from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _tool_stamp(scenario: Scenario) -> dict:
    return {
        "tool": {"name": "routelearn", "version": __version__},
        "scenario": scenario.name,
        "demand": scenario.demand,
        "tolerances": {
            "equilibrium": scenario.tolerances.equilibrium,
            "used_edge": scenario.used_edge_tol,
            "cost_equality": scenario.tolerances.cost_equality,
        },
        "convergence": dataclasses.asdict(scenario.convergence),
    }


def _load(args) -> Scenario:
    """The scenario named by --scenario, with the flags that override it applied.

    --max-stages, --window and --delta replace the scenario's stopping rule
    fields and --tol its equilibrium tolerance. The new values pass the
    checks a scenario file's values pass, and they are what the summary's
    stamp and `run`'s re-emitted scenario record.
    """
    scenario = load_scenario(args.scenario)
    rule = {
        name: value
        for name in ("max_stages", "window", "delta")
        if (value := getattr(args, name, None)) is not None
    }
    tols = {} if getattr(args, "tol", None) is None else {"equilibrium": args.tol}
    return dataclasses.replace(
        scenario,
        convergence=dataclasses.replace(scenario.convergence, **rule),
        tolerances=dataclasses.replace(scenario.tolerances, **tols),
    )


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ScenarioError(
            "seeds", f'expected a range like "0..99" or a list like "1,5,7", got {text!r}'
        ) from None
    if any(s < 0 for s in seeds):
        raise ScenarioError("seeds", f"expected non-negative integers, got {text!r}")
    if not seeds or len(set(seeds)) != len(seeds):
        raise ScenarioError("seeds", f"expected one or more distinct seeds, got {text!r}")
    return seeds


def _belief_dict(scenario: Scenario, probs) -> dict:
    return {s: float(p) for s, p in zip(scenario.model.states, probs)}


def _load_dict(scenario: Scenario, loads) -> dict:
    return {e: float(w) for e, w in zip(scenario.network.edge_ids, loads)}


def cmd_run(args) -> int:
    from .analysis import check_rest_point
    from .dynamics import run, summarize, write_trajectory_csv

    if args.seed < 0:
        raise ScenarioError("seed", f"expected a non-negative integer, got {args.seed}")
    scenario = _load(args)
    out = Path(args.out_dir)
    trajectory = run(scenario, args.seed)
    stem = f"{scenario.name}_seed{args.seed}"
    csv_path = write_trajectory_csv(trajectory, out / f"{stem}_trajectory.csv")
    _write_json(out / f"{stem}_scenario.json", scenario_to_dict(scenario))

    summary = summarize(trajectory)
    terminal_check = check_rest_point(scenario, trajectory.final_belief, trajectory.final_loads)
    payload = _tool_stamp(scenario)
    payload.update(
        {
            "seed": args.seed,
            "status": summary.status,
            "stages": summary.n_stages,
            "terminal": {
                "belief": _belief_dict(scenario, summary.terminal_belief),
                "loads": _load_dict(scenario, summary.terminal_loads),
                "used": list(summary.terminal_used),
            },
            "rest_point": {
                "ok": terminal_check.ok,
                "violations": list(terminal_check.violations),
                "equilibrium_gap": terminal_check.equilibrium_gap,
                "residual_mass": terminal_check.residual_mass,
                "consistency_gap": terminal_check.consistency_gap,
            },
            "files": {"trajectory": csv_path.name},
        }
    )
    _write_json(out / f"{stem}_summary.json", payload)
    print(f"{scenario.name} seed {args.seed}: {summary.status} after {summary.n_stages} stages")
    return 0


def cmd_batch(args) -> int:
    from .dynamics import monte_carlo

    scenario = _load(args)
    out = Path(args.out_dir)
    seeds = _parse_seeds(args.seeds)
    batch = monte_carlo(
        scenario,
        seeds,
        workers=args.workers,
        trajectory_dir=out if args.save_trajectories else None,
    )
    payload = _tool_stamp(scenario)
    payload.update(
        {
            "seeds": list(batch.seeds),
            "n_converged": batch.n_converged,
            "convergence_rate": batch.convergence_rate,
            # no seed converged: null, not NaN
            "mean_stages_to_convergence": (
                None if batch.n_converged == 0 else batch.mean_stages_to_convergence
            ),
            "clusters": [
                {
                    "used": list(c.used),
                    "count": c.count,
                    "share": c.share,
                    "mean_stages": c.mean_stages,
                    "mean_loads": _load_dict(scenario, c.mean_loads),
                    "mean_belief": _belief_dict(scenario, c.mean_belief),
                    "seeds": list(c.seeds),
                }
                for c in batch.clusters
            ],
            "per_seed": [
                {
                    "seed": s.seed,
                    "status": s.status,
                    "stages": s.n_stages,
                    "terminal_used": list(s.terminal_used),
                    "terminal_loads": _load_dict(scenario, s.terminal_loads),
                    "terminal_belief": _belief_dict(scenario, s.terminal_belief),
                }
                for s in batch.summaries
            ],
        }
    )
    _write_json(out / f"{scenario.name}_batch.json", payload)
    print(
        f"{scenario.name}: {batch.n_converged}/{len(batch.seeds)} converged, "
        f"{len(batch.clusters)} terminal cluster(s)"
    )
    return 0


def _rest_points(scenario: Scenario, grid_n: int):
    """Rest-point families and their average-cost comparison, and the payload of both."""
    from .analysis import compare_average_costs, enumerate_rest_points

    report = enumerate_rest_points(scenario, grid_n)
    cost_cmp = compare_average_costs(scenario, report.families)
    families = [
        {
            "used": list(f.used),
            "support": list(f.support),
            "loads": _load_dict(scenario, f.loads),
            "grid_nodes": f.n_nodes,
            "representative_belief": _belief_dict(scenario, f.representative),
            "thresholds": {k: list(v) for k, v in f.thresholds.items()},
            "refined": f.refined,
            "average_cost_true_state": f.average_cost_true,
            "check": {
                "ok": f.check.ok,
                "equilibrium_gap": f.check.equilibrium_gap,
                "residual_mass": f.check.residual_mass,
            },
        }
        for f in report.families
    ]
    comparison = {
        "applicable": cost_cmp.applicable,
        "complete_info_cost": cost_cmp.complete_info_cost,
        "ok": cost_cmp.ok,
        "entries": [
            {"used": list(e.used), "rest_cost": e.rest_cost, "ok": e.ok}
            for e in cost_cmp.entries
        ],
    }
    return report, {"families": families, "average_cost_comparison": comparison}


def cmd_enumerate(args) -> int:
    scenario = _load(args)
    out = Path(args.out_dir)
    report, rest_points = _rest_points(scenario, args.grid_n)
    payload = _tool_stamp(scenario)
    payload.update(
        {
            "grid_n": report.grid_n,
            "nodes_evaluated": report.n_nodes,
            "nodes_passing": report.n_passing,
            "max_solver_gap": report.max_solver_gap,
            **rest_points,
        }
    )
    _write_json(out / f"{scenario.name}_rest_points.json", payload)
    print(f"{scenario.name}: {len(report.families)} rest-point families")
    return 0


def cmd_check(args) -> int:
    from .analysis import check_complete_learning_conditions

    scenario = _load(args)
    out = Path(args.out_dir)
    conditions = check_complete_learning_conditions(scenario)
    _, rest_points = _rest_points(scenario, args.grid_n)
    # the cost comparison applies exactly on series-parallel networks
    sp = rest_points["average_cost_comparison"]["applicable"]
    payload = _tool_stamp(scenario)
    payload.update(
        {
            "series_parallel": sp,
            "complete_learning_conditions": {
                "fully_distinguishable": conditions.fully_distinguishable,
                "witness_distinguishable": _jsonable(conditions.witness_distinguishable),
                "state_independent_free_flow": conditions.state_independent_free_flow,
                "witness_free_flow": _jsonable(conditions.witness_free_flow),
                "all_edges_used": conditions.all_edges_used,
                "witness_utilization": _jsonable(conditions.witness_utilization),
                "any_holds": conditions.any_holds,
            },
            "grid_n": args.grid_n,
            **rest_points,
        }
    )
    _write_json(out / f"{scenario.name}_check.json", payload)
    holds = [
        name
        for name, value in (
            ("fully-distinguishable", conditions.fully_distinguishable),
            ("state-independent-free-flow", conditions.state_independent_free_flow),
            ("all-edges-used", conditions.all_edges_used),
        )
        if value
    ]
    print(
        f"{scenario.name}: series-parallel={sp}, "
        f"complete-learning conditions holding: {holds or 'none'}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routelearn",
        description=(
            "Simulate repeated routing games where travelers play the "
            "equilibrium of a public belief over an unknown network state."
        ),
    )
    parser.add_argument("--version", action="version", version=f"routelearn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--scenario",
            required=True,
            help=f"built-in name ({', '.join(BUILTIN_NAMES)}) or JSON file path",
        )
        p.add_argument("--out-dir", default="out", help="output directory")

    def stopping(p):
        p.add_argument("--max-stages", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--tol", type=float, default=None, help="equilibrium solver tolerance")

    p_run = sub.add_parser("run", help="run one trajectory, write CSV + summary")
    common(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    stopping(p_run)
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser("batch", help="run many seeds, write aggregate JSON")
    common(p_batch)
    p_batch.add_argument("--seeds", required=True, help='e.g. "0..99" or "1,5,7"')
    p_batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="upper bound on the processes that run blocks of seeds; a small batch "
        "runs as fewer blocks, down to one in this process",
    )
    stopping(p_batch)
    p_batch.add_argument("--save-trajectories", action="store_true")
    p_batch.set_defaults(func=cmd_batch)

    p_enum = sub.add_parser("enumerate", help="enumerate rest-point families")
    common(p_enum)
    p_enum.add_argument("--grid-n", type=int, default=100, help="simplex grid resolution")
    p_enum.set_defaults(func=cmd_enumerate)

    p_check = sub.add_parser(
        "check", help="complete-learning conditions, series-parallel flag, cost comparison"
    )
    common(p_check)
    p_check.add_argument("--grid-n", type=int, default=50)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every validation error of the package is one
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
