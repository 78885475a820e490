"""The repeated-play stage loop: equilibrate, observe noisy costs, update.

Each stage plays the Wardrop equilibrium of the current public belief,
realizes Gaussian-noised costs on the used edges, and applies the Bayes
update. Seeds advance in lockstep blocks: a stage of a block (`step`) is
one batched equilibrium solve, the used-edge mask and realized costs of
every row, and one likelihood and Bayes update per set of used edges. After
each stage one stopping-window test runs, and each seed leaves its block
once it converges or reaches max_stages. Each stage starts its equilibrium solve
from the seed's previous equilibrium, so polynomial costs need only a Newton
step or two once the belief settles. Every row of a block is computed as it
would be alone, from its own history, so a trajectory does not depend on
which seeds share its block. Noise is drawn for every edge each stage even
though only used-edge components enter the observation; that keeps the
random stream's consumption independent of which edges were used, so
trajectories replay exactly. A block draws each seed's noise in chunks of
stages from that seed's own stream, which gives the same values as one draw
per stage. The per-stage cost of a block is mostly fixed, so the loop keeps
it small: a chunk's noise and stage rows live in buffers filled in place, a
stage whose rows all used the same edges updates the block's own arrays
without regrouping them, and the likelihood reuses each used-edge set's
cached coefficients.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .belief import bayes_update
from .costs import Belief, polyval_ascending
from .equilibrium import EquilibriumBlock, solve_wardrop_batch
from .errors import BeliefError, RoutelearnError, SolverError
from .graph import row_groups, used_edges
from .scenario import Scenario

CONVERGED = "converged"
MAX_STAGES = "max_stages"
_NOISE_CHUNK = 64  # stages of noise a block draws per seed at a time
# fewest seeds a block gets when monte_carlo splits a batch. A lockstep
# block's stage cost is mostly fixed, so a split costs CPU at every size.
# On a 2-core host two blocks took 0.68-0.88 of one block's wall time at 512
# seeds a block, and 0.76-1.01 at 256 (medians; tools/pool_breakeven.py).
_MIN_BLOCK_SEEDS = 512


class NoiseSampler:
    """Seeded multivariate Gaussian noise stream with covariance sigma."""

    def __init__(self, sigma, seed: int | np.random.Generator):
        sigma = np.asarray(sigma, dtype=float)
        self._chol = np.linalg.cholesky(sigma)
        self._rng = np.random.default_rng(seed)  # a Generator passes through as is

    def sample(self, count: int | None = None) -> np.ndarray:
        """One draw, or `count` draws as rows.

        Each row is the Cholesky factor times its own standard normal vector,
        so `sample(count)` equals `count` calls of `sample()` bit for bit.
        """
        n = self._chol.shape[0]
        z = self._rng.standard_normal(n if count is None else (count, n))
        return np.matvec(self._chol, z)


def realize_costs(
    scenario: Scenario, loads: np.ndarray, used_mask: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """The scenario's true-state costs plus noise on the used edges, NaN on the others,
    one row per row of `loads`. The noise of unused edges is drawn but never observed."""
    coeffs = scenario.model.state_coefficients(scenario.true_state)
    true_costs = polyval_ascending(coeffs.T, loads, axis=0)
    return np.where(used_mask, true_costs + noise, np.nan)


@dataclass(frozen=True)
class Trajectory:
    """One seed's stages as per-stage arrays; stage k is row k - 1.

    `beliefs` has one row more than the others: row 0 is the initial belief
    and row k the posterior after stage k. `costs` holds the realized cost
    on each used edge and NaN on the edges that carried no load.
    """

    scenario: Scenario
    seed: int
    status: str
    beliefs: np.ndarray
    equilibria: EquilibriumBlock
    used: np.ndarray
    costs: np.ndarray

    @property
    def n_stages(self) -> int:
        return len(self.used)

    @property
    def final_belief(self) -> Belief:
        return Belief(self.beliefs[-1])

    @property
    def final_loads(self) -> np.ndarray:
        return self.equilibria.edge_loads[-1]

    @property
    def final_used(self) -> tuple[str, ...]:
        return tuple(e for e, u in zip(self.scenario.model.edges, self.used[-1]) if u)


def step(
    scenario: Scenario,
    probs: np.ndarray,
    noise: np.ndarray,
    init_flows: np.ndarray | None = None,
):
    """One stage for a block of beliefs, one per row of `probs`.

    One equilibrium solve for the block, started from `init_flows` when
    given (see `solve_wardrop_batch`), and one likelihood and Bayes update
    per group of rows that used the same edges. Row i of `noise` is row i's
    draw on every edge.
    Returns the equilibria, the used-edge mask, the realized costs (NaN on
    unused edges) and the posteriors. An error names its row in `row`.
    """
    model = scenario.model
    eq = solve_wardrop_batch(
        scenario.network,
        model,
        probs,
        scenario.demand,
        tol=scenario.tolerances.equilibrium,
        init_flows=init_flows,
    )
    eq.raise_unconverged()
    loads = eq.edge_loads
    used = used_edges(scenario.network, loads, scenario.used_edge_tol)
    if not used.any(axis=1).all():
        raise BeliefError("observation needs at least one used edge").at_row(
            np.argmin(used.any(axis=1))
        )
    costs = realize_costs(scenario, loads, used, noise)
    post = np.empty_like(probs)
    for pattern, rows in row_groups(used):
        idx = tuple(np.flatnonzero(pattern).tolist())
        if len(rows) == len(probs):  # one pattern, as in a settled block: no gathering
            sel, observed = slice(None), costs[:, idx]
        else:
            sel, observed = rows, costs[np.ix_(rows, idx)]
        try:
            post[sel] = bayes_update(probs[sel], model, idx, loads[sel], observed)
        except RoutelearnError as exc:
            if exc.row is not None:
                exc.at_row(rows[exc.row])
            raise
    return eq, used, costs, post


def _for_seed(exc: RoutelearnError, seed: int, stage: int) -> RoutelearnError:
    named = type(exc)(f"seed {seed}, stage {stage}: {exc}")
    if isinstance(exc, SolverError):
        named.best = exc.best
    return named


def _row_fields(scenario: Scenario) -> tuple[int, ...]:
    """Widths of the fields of a packed stage row.

    In order: posterior, route flows, edge loads, gap, route costs,
    iterations, potential, used flags and realized costs.
    """
    n_s, n_r, n_e = scenario.model.n_states, scenario.network.n_routes, scenario.network.n_edges
    return (n_s, n_r, n_e, 1, n_r, 1, 1, n_e, n_e)


def _unpack(scenario: Scenario, seed: int, status: str, rows: np.ndarray) -> Trajectory:
    """A trajectory from its packed stage rows (see `_row_fields`), one row per stage."""
    cuts = np.cumsum(_row_fields(scenario)[:-1])
    post, flows, loads, gap, route_costs, iters, potential, used, costs = np.split(
        rows, cuts, axis=1
    )
    return Trajectory(
        scenario=scenario,
        seed=seed,
        status=status,
        beliefs=np.vstack([scenario.initial_belief.probs, post]),
        equilibria=EquilibriumBlock(
            route_flows=flows,
            edge_loads=loads,
            gap=gap[:, 0],
            route_costs=route_costs,
            n_iterations=iters[:, 0].astype(np.intp),
            potential=potential[:, 0],
            converged=np.ones(len(rows), dtype=bool),
        ),
        used=used.astype(bool),
        costs=costs,
    )


def run_block(scenario: Scenario, seeds: Sequence[int]) -> Iterator[Trajectory]:
    """Advance a block of seeds in lockstep; yield each trajectory as its seed leaves.

    The process itself never stops, so under the scenario's stopping rule
    (`scenario.convergence`) a seed leaves once both its belief and its load
    have moved less than delta (delta * demand for loads) between
    consecutive stages for `window` stages in a row, or after `max_stages`
    stages. Stage-to-stage differences start at stage 2, so the
    earliest possible convergence is stage window + 1. Stage 1 starts its
    equilibrium solve from the default all-or-nothing flows; each later
    stage starts from the seed's previous equilibrium, which lies close
    once the belief settles. Each trajectory is the one `run` gives for its
    seed. Each seed's noise is drawn `_NOISE_CHUNK` stages at a time from its
    own stream, the values one draw per stage would give. The chunk's noise
    and stage rows sit in two buffers indexed by block position, one
    stage's rows written at once; a seed copies its rows out at the chunk's
    last stage and when it leaves, so its trajectory owns its memory and
    the next chunk can overwrite the buffers.
    """
    rule = scenario.convergence
    seeds = [int(s) for s in seeds]
    samplers = [NoiseSampler(scenario.model.sigma, s) for s in seeds]
    prior = scenario.initial_belief.probs
    probs = np.tile(prior, (len(seeds), 1))
    live = np.arange(len(seeds))  # block positions of the seeds still playing
    streak = np.zeros(len(seeds), dtype=int)  # stages in a row with small moves
    # the current chunk's noise and packed stage rows, by block position and
    # stage within the chunk
    noise = np.empty((len(seeds), _NOISE_CHUNK, scenario.network.n_edges))
    buf = np.empty((len(seeds), _NOISE_CHUNK, sum(_row_fields(scenario))))
    done: list[list | None] = [[] for _ in seeds]  # per seed, copies of its full chunks
    load_bound = rule.delta * scenario.demand
    prev_loads = prev_flows = None

    for k in range(1, rule.max_stages + 1):
        at = (k - 1) % _NOISE_CHUNK
        if at == 0:  # each live seed's noise for the next chunk of stages
            for i in live.tolist():
                noise[i] = samplers[i].sample(_NOISE_CHUNK)
        try:
            eq, used, costs, post = step(scenario, probs, noise[live, at], prev_flows)
        except RoutelearnError as exc:
            if exc.row is None:
                raise
            raise _for_seed(exc, seeds[live[exc.row]], k) from exc
        buf[live, at] = np.concatenate([
            post, eq.route_flows, eq.edge_loads, eq.gap[:, None], eq.route_costs,
            eq.n_iterations[:, None], eq.potential[:, None], used, costs,
        ], axis=1)
        if prev_loads is not None:
            small = (np.abs(post - probs).max(axis=1) < rule.delta) & (
                np.abs(eq.edge_loads - prev_loads).max(axis=1) < load_bound
            )
            streak = np.where(small, streak + 1, 0)
        converged = streak >= rule.window
        leaving = converged | (k == rule.max_stages)
        for j in np.flatnonzero(leaving).tolist():
            i = int(live[j])
            status = CONVERGED if converged[j] else MAX_STAGES
            rows = np.concatenate([*done[i], buf[i, : at + 1]])  # a copy of its own
            done[i] = None
            yield _unpack(scenario, seeds[i], status, rows)
        stay = ~leaving
        live, probs, streak = live[stay], post[stay], streak[stay]
        prev_loads, prev_flows = eq.edge_loads[stay], eq.route_flows[stay]
        if not live.size:
            return
        if at == _NOISE_CHUNK - 1:  # the next chunk overwrites the buffer
            for i in live.tolist():
                done[i].append(buf[i].copy())


def run(scenario: Scenario, seed: int) -> Trajectory:
    """Run the learning dynamics for one seed until the stopping window triggers.

    A block of one seed; see `run_block` for the stopping rule.
    """
    return next(run_block(scenario, [seed]))


@dataclass(frozen=True)
class TrajectorySummary:
    seed: int
    status: str
    n_stages: int
    terminal_used: tuple[str, ...]
    terminal_loads: np.ndarray
    terminal_belief: np.ndarray


def summarize(trajectory: Trajectory) -> TrajectorySummary:
    return TrajectorySummary(
        seed=trajectory.seed,
        status=trajectory.status,
        n_stages=trajectory.n_stages,
        terminal_used=trajectory.final_used,
        terminal_loads=np.array(trajectory.final_loads),
        terminal_belief=np.array(trajectory.final_belief.probs),
    )


@dataclass(frozen=True)
class TerminalCluster:
    """Trajectories grouped by which edges their terminal equilibrium uses."""

    used: tuple[str, ...]
    count: int
    share: float
    mean_stages: float
    mean_loads: np.ndarray
    mean_belief: np.ndarray
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class BatchSummary:
    scenario_name: str
    seeds: tuple[int, ...]
    summaries: tuple[TrajectorySummary, ...]
    clusters: tuple[TerminalCluster, ...]
    n_converged: int

    @property
    def convergence_rate(self) -> float:
        return self.n_converged / len(self.seeds) if self.seeds else float("nan")

    @property
    def mean_stages_to_convergence(self) -> float:
        stages = [s.n_stages for s in self.summaries if s.status == CONVERGED]
        return float(np.mean(stages)) if stages else float("nan")


def _run_block_case(args) -> list[TrajectorySummary]:
    scenario, seeds, traj_dir = args
    summaries = {}
    for traj in run_block(scenario, seeds):
        if traj_dir is not None:
            write_trajectory_csv(
                traj, Path(traj_dir) / f"{scenario.name}_seed{traj.seed}_trajectory.csv"
            )
        summaries[traj.seed] = summarize(traj)
    return [summaries[s] for s in seeds]


def monte_carlo(
    scenario: Scenario,
    seeds: Sequence[int],
    *,
    workers: int = 1,
    trajectory_dir: str | Path | None = None,
) -> BatchSummary:
    """Independent trajectories for each seed, merged after completion.

    The seeds are split into contiguous blocks, each advancing in
    lockstep: at most `workers` blocks, and only as many as give every
    block at least `_MIN_BLOCK_SEEDS` seeds, since a block costs nearly as
    much for a few seeds as for many. So `workers` is an upper bound, and
    a batch of fewer than 2 * `_MIN_BLOCK_SEEDS` seeds is one block and
    starts no process. The calling process runs the first block and a pool
    of one process per other block the rest, so errors surface in block
    order. Results are keyed by seed and identical regardless of worker
    count: each trajectory draws from its own generator seeded by its own
    seed, and a block computes every row as it would alone.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    seed_list = [int(s) for s in seeds]
    if len(set(seed_list)) != len(seed_list):
        raise ValueError("seeds must be distinct")
    if not seed_list:
        raise ValueError("need at least one seed")
    n_blocks = min(workers, max(1, len(seed_list) // _MIN_BLOCK_SEEDS))
    bounds = [len(seed_list) * b // n_blocks for b in range(n_blocks + 1)]
    args = [
        (scenario, seed_list[lo:hi], trajectory_dir)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    if n_blocks == 1:
        blocks = [_run_block_case(args[0])]
    else:
        # imported here: it loads multiprocessing, which only a pool needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_blocks - 1) as pool:
            rest = pool.map(_run_block_case, args[1:])  # submitted before block 0 runs here
            blocks = [_run_block_case(args[0]), *rest]
    summaries = [s for block in blocks for s in block]

    groups: dict[tuple[str, ...], list[TrajectorySummary]] = {}
    for s in summaries:
        groups.setdefault(s.terminal_used, []).append(s)
    clusters = []
    for used, members in groups.items():
        clusters.append(
            TerminalCluster(
                used=used,
                count=len(members),
                share=len(members) / len(summaries),
                mean_stages=float(np.mean([m.n_stages for m in members])),
                mean_loads=np.mean([m.terminal_loads for m in members], axis=0),
                mean_belief=np.mean([m.terminal_belief for m in members], axis=0),
                seeds=tuple(m.seed for m in members),
            )
        )
    clusters.sort(key=lambda c: (-c.count, c.used))
    return BatchSummary(
        scenario_name=scenario.name,
        seeds=tuple(seed_list),
        summaries=tuple(summaries),
        clusters=tuple(clusters),
        n_converged=sum(1 for s in summaries if s.status == CONVERGED),
    )


def write_trajectory_csv(trajectory: Trajectory, path: str | Path) -> Path:
    """One row per stage: posterior belief, loads, used flags, realized costs.

    Floats carry 17 significant digits so the file fully determines replays;
    cost cells are empty for edges that were not used in that stage. Each
    row is one `%` format whose template follows its used edges, and the
    rows are written in one call.
    """
    scenario = trajectory.scenario
    edge_ids = scenario.network.edge_ids
    state_labels = scenario.model.states
    header = (
        ["stage"]
        + [f"theta_{s}" for s in state_labels]
        + [f"w_{e}" for e in edge_ids]
        + [f"used_{e}" for e in edge_ids]
        + [f"c_{e}" for e in edge_ids]
    )
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(header)  # labels may need quoting

    n_fixed = len(state_labels) + len(edge_ids)
    cells = np.hstack(
        [trajectory.beliefs[1:], trajectory.equilibria.edge_loads, trajectory.costs]
    )
    lines = [""] * len(cells)
    for pattern, rows in row_groups(trajectory.used):
        flags = pattern.tolist()
        template = (
            "%d"
            + ",%.17g" * n_fixed
            + "".join(",1" if u else ",0" for u in flags)
            + "".join(",%.17g" if u else "," for u in flags)
            + "\n"
        )
        cols = np.r_[:n_fixed, n_fixed + np.flatnonzero(pattern)]
        for r, values in zip(rows.tolist(), cells[np.ix_(rows, cols)].tolist()):
            lines[r] = template % (r + 1, *values)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(head.getvalue() + "".join(lines))
    return path
