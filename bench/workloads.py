"""The three benchmark workloads: generated inputs, commands, outputs, checks.

Each workload is a closed loop with one client: a round is a fixed list of
`routelearn` commands run one after another, and the next round starts
only when the previous one has finished and been checked. The workload
seed is the only source of the inputs; the program sees nothing but the
generated command lines and scenario file.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import reference


class Workload:
    """Interface of one workload; `round` returns (commands, inputs)."""

    name: str
    table: reference.Table
    scenario: str  # the --scenario argument, also timed by the set-up metric

    def round(self, r: int, out_dir: Path, trace: bool) -> tuple[list[list[str]], dict]:
        raise NotImplementedError

    def read(self, out_dir: Path, inp: dict) -> dict:
        raise NotImplementedError

    def equilibria(self, out: dict, inp: dict) -> int:
        """Beliefs whose equilibrium the outputs report: stages plus grid nodes."""
        raise NotImplementedError

    def grids(self, inp: dict) -> list[int]:
        """Grid resolutions the round sweeps, for timing the grid generator."""
        return []


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _nodes(n_states: int, grid_n: int) -> int:
    return math.comb(grid_n + n_states - 1, n_states - 1)


class BatchThreeEdge(Workload):
    """The paper's example: affine costs, about 2 Frank-Wolfe iterations a
    stage, so time goes to per-call overhead and per-seed CSV writes."""

    name = "batch-three-edge"
    seeds_per_round = 40

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.table = reference.three_edge_table()
        self.scenario = "three-edge"

    def round(self, r, out_dir, trace):
        first = self.seed + r * self.seeds_per_round
        seeds = list(range(first, first + self.seeds_per_round))
        cmd = [
            "batch", "--scenario", self.scenario, "--seeds", f"{seeds[0]}..{seeds[-1]}",
            "--save-trajectories", "--workers", "1", "--out-dir", str(out_dir),
        ]
        return [cmd], {"seeds": seeds}

    def read(self, out_dir, inp):
        return {
            "batch": _read_json(out_dir / "three-edge_batch.json"),
            "csv": {
                s: reference.read_trajectory_csv(
                    out_dir / f"three-edge_seed{s}_trajectory.csv", self.table
                )
                for s in inp["seeds"]
            },
        }

    def equilibria(self, out, inp):
        return sum(s["stages"] for s in out["batch"]["per_seed"])


class EnumerateThreeEdge(Workload):
    """Rest-point sweep over millions of grid nodes: batch solver, grid,
    mask and clustering; no stage loop, belief update or CSV."""

    name = "enumerate-three-edge"
    grid_range = (180, 240)

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.table = reference.three_edge_table()
        self.scenario = "three-edge"

    def round(self, r, out_dir, trace):
        grid_n = random.Random(self.seed * 7919 + r).randint(*self.grid_range)
        cmd = ["enumerate", "--scenario", self.scenario, "--grid-n", str(grid_n),
               "--out-dir", str(out_dir)]
        return [cmd], {"grid_n": grid_n}

    def read(self, out_dir, inp):
        return {"report": _read_json(out_dir / "three-edge_rest_points.json")}

    def equilibria(self, out, inp):
        return out["report"]["nodes_evaluated"]

    def grids(self, inp):
        return [inp["grid_n"]]


class WheatstonePoly(Workload):
    """Degree-4 costs on a bridge that is not series-parallel: about 28
    Frank-Wolfe iterations a stage with a 60-step bisection line search,
    the batch solver's polynomial path, and the two-worker process pool."""

    name = "wheatstone-poly"
    seeds_per_round = 4
    workers = 2
    grid_n = 20

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.table = reference.wheatstone_table()
        path = run_dir / "wheatstone-poly.json"
        path.write_text(json.dumps(self.table.to_scenario(), indent=2))
        self.scenario = str(path)
        self.conditions = reference.learning_conditions(self.table)

    def round(self, r, out_dir, trace):
        first = self.seed + r * self.seeds_per_round
        seeds = list(range(first, first + self.seeds_per_round))
        # Spans are recorded in this process only, so traced runs keep the
        # stage loop here with one worker.
        workers = 1 if trace else self.workers
        batch = [
            "batch", "--scenario", self.scenario, "--seeds", f"{seeds[0]}..{seeds[-1]}",
            "--workers", str(workers), "--out-dir", str(out_dir),
        ]
        check = ["check", "--scenario", self.scenario, "--grid-n", str(self.grid_n),
                 "--out-dir", str(out_dir)]
        return [batch, check], {
            "seeds": seeds, "grid_n": self.grid_n, "conditions": self.conditions,
        }

    def read(self, out_dir, inp):
        return {
            "batch": _read_json(out_dir / "wheatstone-poly_batch.json"),
            "check": _read_json(out_dir / "wheatstone-poly_check.json"),
        }

    def equilibria(self, out, inp):
        stages = sum(s["stages"] for s in out["batch"]["per_seed"])
        return stages + _nodes(len(self.table.states), inp["grid_n"])

    def grids(self, inp):
        return [inp["grid_n"]]


WORKLOADS = {w.name: w for w in (BatchThreeEdge, EnumerateThreeEdge, WheatstonePoly)}
