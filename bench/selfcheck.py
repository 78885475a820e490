"""Test the benchmark's own checks: none of them may be vacuous.

    python3 bench/selfcheck.py

Runs each workload once at a small size, requires every reference check
to accept the real outputs, and then requires each check to reject every
deliberately perturbed copy aimed at it. Also requires BENCHMARK.json to
name exactly the workloads and metrics (with units) that run.py reports.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import io
import contextlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from run import BENCH, END_TO_END, PER_LAYER, ROOT, SRC

sys.path.insert(0, str(SRC))
import routelearn.cli as cli  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _set_loads(seed_entry, loads):
    seed_entry["terminal_loads"] = dict(zip(("e1", "e2", "e3"), loads))


def _set_belief(seed_entry, probs, states=("e1", "e2", "e3", "none")):
    seed_entry["terminal_belief"] = dict(zip(states, probs))


def _first(out):
    return out["batch"]["per_seed"][0]


def _seed_rows(out):
    return out["csv"][_first(out)["seed"]]


def _nudge_csv_loads(out):
    rows = _seed_rows(out)
    rows["w"][-1] = rows["w"][-1] + np.array([0.0, 1e-8, -1e-8])


def _nudge_csv_cost(out):
    rows = _seed_rows(out)
    k = len(rows["c"]) // 2
    i = int(np.flatnonzero(rows["used"][k])[0])
    rows["c"][k, i] += 0.01


def _move_mass(entry, src, dst, amount):
    entry["terminal_belief"][src] -= amount
    entry["terminal_belief"][dst] += amount


def _frozen(out):
    """A real seed that froze with e2 unused."""
    return next(s for s in out["batch"]["per_seed"] if s["terminal_loads"]["e2"] <= reference.USED_TOL)


def _frozen_low_e2(out):
    _move_mass(_frozen(out), "e2", "none", _frozen(out)["terminal_belief"]["e2"] - 0.15)


def _frozen_from_learned(out):
    _set_loads(_first(out), (1.0, 0.0, 1.0))
    _set_belief(_first(out), (0.0, 0.1, 0.0, 0.9))


def _family(out, used):
    return next(f for f in out["report"]["families"] if f["used"] == list(used))


def _shift_route_flow(eps):
    # one unit from route e2-e4 onto route e1-e3: feasible, but not an equilibrium
    def perturb(out):
        for s in out["batch"]["per_seed"]:
            for e, d in (("e1", eps), ("e3", eps), ("e2", -eps), ("e4", -eps)):
                s["terminal_loads"][e] += d
    return perturb


def _infeasible_loads(out):
    _first(out)["terminal_loads"]["e5"] += 1e-3


# check -> perturbations of one round's outputs that it must reject
PERTURBATIONS = {
    "batch-three-edge": {
        reference.check_seeds_converged: [
            lambda o: _first(o).update(status="max_stages"),
            lambda o: o["batch"].update(n_converged=o["batch"]["n_converged"] - 1),
            lambda o: o["batch"]["seeds"].pop(),
        ],
        reference.check_closed_form_loads: [
            _nudge_csv_loads,
            lambda o: _set_loads(_first(o), _seed_rows(o)["w"][-1] + [0, 1e-9, -1e-9]),
        ],
        reference.check_no_distinguishable_mass: [
            lambda o: _move_mass(_first(o), "none", "e1", 0.01),
            lambda o: _move_mass(_first(o), "none", "e3", 0.01),
        ],
        reference.check_e2_threshold: [_frozen_low_e2, _frozen_from_learned],
        reference.check_replay_belief: [
            _nudge_csv_cost,
            lambda o: _move_mass(_first(o), "none", "e2", 1e-6),
            lambda o: _seed_rows(o).update(stage=_seed_rows(o)["stage"][:-1]),
        ],
    },
    "enumerate-three-edge": {
        reference.check_nodes_evaluated: [
            lambda o: o["report"].update(nodes_evaluated=o["report"]["nodes_evaluated"] + 1),
        ],
        reference.check_families: [
            lambda o: o["report"]["families"].pop(),
            lambda o: _family(o, ("e1", "e3"))["thresholds"].update(e2=[0.2 + 2e-6, 1.0]),
            lambda o: _family(o, ("e1", "e3")).update(support=["none"]),
            lambda o: _family(o, ("e1", "e2", "e3"))["loads"].update(e2=0.5 + 1e-6),
            lambda o: o["report"]["families"].append(copy.deepcopy(o["report"]["families"][0])),
        ],
        reference.check_nodes_passing: [
            lambda o: o["report"].update(nodes_passing=o["report"]["nodes_passing"] + 1),
            lambda o: _family(o, ("e1", "e3")).update(grid_nodes=_family(o, ("e1", "e3"))["grid_nodes"] - 1),
        ],
        reference.check_average_costs: [
            lambda o: _family(o, ("e1", "e2", "e3")).update(average_cost_true_state=11.6),
            lambda o: _family(o, ("e1", "e3")).update(average_cost_true_state=11.5),
        ],
    },
    "wheatstone-poly": {
        reference.check_learning_condition: [
            lambda o: o["check"]["complete_learning_conditions"].update(all_edges_used=False),
            lambda o: o["check"]["complete_learning_conditions"].update(
                state_independent_free_flow=False
            ),
            lambda o: o["check"]["complete_learning_conditions"].update(any_holds=False),
        ],
        reference.check_learns_truth: [
            lambda o: _move_mass(_first(o), "none", "e5", 0.01),
            lambda o: _first(o).update(status="max_stages"),
        ],
        reference.check_wardrop_numpy: [_shift_route_flow(1e-5), _infeasible_loads],
        reference.check_beckmann_slsqp: [_shift_route_flow(2e-6)],
        reference.check_not_series_parallel: [lambda o: o["check"].update(series_parallel=True)],
        reference.check_single_family: [
            lambda o: o["check"]["families"][0].update(support=["e5", "none"]),
            lambda o: o["check"]["families"][0]["loads"].update(e5=0.56),
        ],
    },
}

# Small rounds: the batch range holds seeds that learn completely and seed
# 231, which freezes at loads (1, 0, 1) with e2 unexplored.
SMALL = {
    "batch-three-edge": {"seed": 228, "seeds_per_round": 6},
    "enumerate-three-edge": {"seed": 0, "grid_range": (41, 41)},
    "wheatstone-poly": {"seed": 0, "seeds_per_round": 2, "grid_n": 8},
}


def real_outputs(name: str, work: Path):
    opts = dict(SMALL[name])
    workload = WORKLOADS[name](opts.pop("seed"), work)
    for key, value in opts.items():
        setattr(workload, key, value)
    out_dir = work / "round0"
    commands, inp = workload.round(0, out_dir, trace=True)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"routelearn {' '.join(argv)} exited {code}")
    return workload, workload.read(out_dir, inp), inp


def rejects(check, out, inp, table) -> bool:
    try:
        check(out, inp, table)
    except reference.CheckFailed:
        return True
    return False


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != units:
            problems.append(f"BENCHMARK.json {key} differs from bench/run.py")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    work = BENCH / "out" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    for name, perturbations in PERTURBATIONS.items():
        work_dir = work / name
        work_dir.mkdir(parents=True)
        workload, out, inp = real_outputs(name, work_dir)
        table = workload.table
        missing = set(reference.CHECKS[name]) - set(perturbations)
        problems += [f"{name}: {c.__name__} has no perturbation" for c in missing]
        problems += [f"{name}: real output fails {f}" for f in reference.run_checks(name, out, inp, table)]
        if name == "batch-three-edge" and not any(
            s["terminal_loads"]["e2"] <= reference.USED_TOL for s in out["batch"]["per_seed"]
        ):
            problems.append(f"{name}: no seed froze at (1, 0, 1); e2_threshold untested")
        for check, perturbs in perturbations.items():
            for k, perturb in enumerate(perturbs):
                bad = copy.deepcopy(out)
                perturb(bad)
                status = "rejected" if rejects(check, bad, inp, table) else "ACCEPTED"
                print(f"{name}: {check.__name__} perturbation {k}: {status}")
                if status == "ACCEPTED":
                    problems.append(f"{name}: {check.__name__} accepts perturbation {k}")
    shutil.rmtree(work)
    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
