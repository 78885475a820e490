"""Rest-point theory: distinguishability, verification, enumeration, costs.

A rest point pairs a belief with the equilibrium load it induces such that
the belief puts no mass on states whose costs differ from the truth on any
used edge. Trajectories settle exactly on such pairs, so these checks close
the loop between simulation output and the underlying fixed-point structure.

The sweep solves the face of the belief grid where rest points can lie in
blocks, then refines each two-state family's boundary by bisection; one
block solve evaluates the midpoints of four halvings.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .costs import Belief, polyval_ascending
from .equilibrium import EquilibriumBlock, solve_wardrop, solve_wardrop_batch
from .errors import SolverError
from .graph import is_series_parallel, row_any, row_groups, row_sum, used_edges
from .scenario import Scenario


_MASS_TOL = 1e-9  # belief mass on distinguishable states that a swept rest point may carry
_REFINE_TOL = 1e-6  # width at which the bisection of a family's boundary stops
_SOLVER_TOL = 1e-10  # relative duality gap of every rest-point solve


def _solve(scenario: Scenario, thetas: np.ndarray) -> EquilibriumBlock:
    """The equilibria of the belief rows `thetas`, one block solve at `_SOLVER_TOL`.

    A row that does not converge raises SolverError naming its belief.
    """
    eq = solve_wardrop_batch(
        scenario.network, scenario.model, thetas, scenario.demand, tol=_SOLVER_TOL
    )
    try:
        eq.raise_unconverged()
    except SolverError as exc:
        belief = ", ".join(f"{p:g}" for p in thetas[exc.row])
        raise SolverError(f"belief ({belief}): {exc}", best=exc.best) from exc
    return eq


def _distinguishable(scenario: Scenario, loads: np.ndarray) -> np.ndarray:
    """(n, S) mask of the states whose cost differs from the truth, by more
    than the scenario's `tolerances.cost_equality`, on an edge that row i of
    `loads` uses at its `used_edge_tol`.

    A state that differs only on edges carrying no load produces the same
    observed-cost distribution as the truth and cannot be told apart. The
    loop over states keeps memory at a few (n, E) arrays.
    """
    model, cost_tol = scenario.model, scenario.tolerances.cost_equality
    true_idx = model.state_index(scenario.true_state)
    used_mask = used_edges(scenario.network, loads, scenario.used_edge_tol)
    true_vals = polyval_ascending(model._coeffs[:, true_idx, :], loads)
    dist = np.zeros((len(loads), model.n_states), dtype=bool)
    for j in range(model.n_states):
        if j == true_idx:
            continue
        vals = polyval_ascending(model._coeffs[:, j, :], loads)
        dist[:, j] = row_any(used_mask & (np.abs(vals - true_vals) > cost_tol))
    return dist


def average_cost(scenario: Scenario, loads) -> float:
    """Demand-weighted travel time: sum of load times edge cost in the true state."""
    w = np.asarray(loads, dtype=float)
    vals = polyval_ascending(scenario.model.state_coefficients(scenario.true_state), w)
    return float(w @ vals)


@dataclass(frozen=True)
class RestPointCheck:
    """Certificates for one claimed (belief, load) rest point."""

    ok: bool
    violations: tuple[str, ...]
    equilibrium_gap: float  # max-norm gap between claimed and recomputed loads
    residual_mass: float  # belief mass on states distinguishable at the claim
    consistency_gap: float  # worst used-edge gap, believed vs true expected cost
    used: tuple[str, ...]


def check_rest_point(
    scenario: Scenario,
    theta: Belief,
    loads,
    *,
    load_tol: float = 1e-6,
    mass_tol: float = 1e-3,
) -> RestPointCheck:
    """Verify a claimed rest point of the scenario and return its certificates.

    Passes when (i) the equilibrium at `theta`, solved to a relative gap of
    `_SOLVER_TOL`, reproduces `loads` within `load_tol` and (ii) `theta`
    puts at most `mass_tol` on states distinguishable at `loads`. Also
    certifies that on used edges the belief-weighted cost matches the true
    cost, which (i) and (ii) imply up to residual-mass leakage. Used edges
    and equal costs are the scenario's (`used_edge_tol`,
    `tolerances.cost_equality`).
    """
    model, cost_tol = scenario.model, scenario.tolerances.cost_equality
    w_claim = np.asarray(loads, dtype=float)
    true_idx = model.state_index(scenario.true_state)
    violations = []

    eq = _solve(scenario, theta.probs[None, :])
    gap = float(np.max(np.abs(eq.edge_loads[0] - w_claim)))
    if gap > load_tol:
        violations.append("equilibrium_load_mismatch")

    dist = _distinguishable(scenario, w_claim[None, :])
    mass = float((theta.probs[None, :] * dist).sum(axis=1)[0])
    if mass > mass_tol:
        violations.append("distinguishable_mass")

    used_idx = np.flatnonzero(used_edges(scenario.network, w_claim, scenario.used_edge_tol))
    used_labels = tuple(model.edges[i] for i in used_idx)
    if used_idx.size:
        per_state = model.cost_matrix(w_claim, used_idx)  # (S, m)
        # state by state, as mixed_coefficients_batch adds: bits free of per_state's layout
        believed = theta.probs[0] * per_state[0]
        for p, costs in zip(theta.probs[1:], per_state[1:]):
            believed += p * costs
        true_vals = per_state[true_idx]
        consistency = float(np.max(np.abs(believed - true_vals)))
        worst_state_gap = float(np.max(np.abs(per_state - true_vals[None, :])))
    else:
        consistency = 0.0
        worst_state_gap = 0.0
    # mass leakage on distinguishable states bounds the believed-cost error
    if consistency > mass_tol * (1.0 + worst_state_gap) + cost_tol:
        violations.append("used_cost_consistency")

    return RestPointCheck(
        ok=not violations,
        violations=tuple(violations),
        equilibrium_gap=gap,
        residual_mass=mass,
        consistency_gap=consistency,
        used=used_labels,
    )


@dataclass(frozen=True)
class RestPointFamily:
    """A cluster of rest points sharing one used-edge set.

    On a fixed used-edge set the equilibrium load is pinned down, so the
    family varies only in the belief. `thresholds` maps each support state
    to the (min, max) mass it takes across the family; when the support has
    exactly two states the boundaries are refined by bisection.
    """

    used: tuple[str, ...]
    support: tuple[str, ...]
    loads: np.ndarray
    n_nodes: int
    representative: np.ndarray
    thresholds: dict[str, tuple[float, float]]
    refined: bool
    average_cost_true: float
    check: RestPointCheck


@dataclass(frozen=True)
class RestPointReport:
    families: tuple[RestPointFamily, ...]
    grid_n: int
    n_nodes: int
    n_passing: int
    max_solver_gap: float


def _simplex_grid_chunks(n_states: int, grid_n: int, chunk_size: int):
    """Yield (chunk, n_states) arrays covering the grid k/grid_n on the simplex.

    Nodes come in lexicographic order of their counts, chunk_size to a chunk
    but the last. Only the counts of the first n_states - 2 states are held
    for the whole grid; the last two are filled in chunk by chunk.
    """
    if n_states == 1:
        yield np.ones((1, 1))
        return
    # each head row followed by each count it leaves room for, in order
    head, left = np.zeros((1, 0), dtype=np.int64), np.array([grid_n])
    for _ in range(n_states - 2):
        reps = left + 1
        count = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        head = np.column_stack([np.repeat(head, reps, axis=0), count])
        left = np.repeat(left, reps) - count
    ends = np.cumsum(left + 1)
    for lo in range(0, int(ends[-1]), chunk_size):
        node = np.arange(lo, min(lo + chunk_size, int(ends[-1])))
        p = np.searchsorted(ends, node, side="right")
        count = node - ends[p] + left[p] + 1
        yield np.column_stack([head[p], count, left[p] - count]) / grid_n


class _ClusterAccumulator:
    __slots__ = (
        "count",
        "support_mask",
        "load_sum",
        "theta_min",
        "theta_max",
        "rep",
        "rep_support_size",
    )

    def __init__(self, n_states: int, n_edges: int):
        self.count = 0
        self.support_mask = np.zeros(n_states, dtype=bool)
        self.load_sum = np.zeros(n_edges)
        self.theta_min = np.ones(n_states)
        self.theta_max = np.zeros(n_states)
        self.rep = None
        self.rep_support_size = -1

    def add(self, thetas: np.ndarray, loads: np.ndarray) -> None:
        self.count += len(thetas)
        sup = thetas > 0.0
        self.support_mask |= sup.any(axis=0)
        self.load_sum += loads.sum(axis=0)
        np.minimum(self.theta_min, thetas.min(axis=0), out=self.theta_min)
        np.maximum(self.theta_max, thetas.max(axis=0), out=self.theta_max)
        sizes = sup.sum(axis=1)
        best = int(np.argmax(sizes))
        if int(sizes[best]) > self.rep_support_size:
            self.rep_support_size = int(sizes[best])
            self.rep = thetas[best].copy()


def _used_key(used: np.ndarray) -> int:
    """Integer key of a used-edge mask, bit i for edge i, for any number of edges."""
    return int.from_bytes(np.packbits(used, bitorder="little").tobytes(), "little")


def _rest_point_screen(
    scenario: Scenario, thetas: np.ndarray
) -> tuple[EquilibriumBlock, np.ndarray]:
    """The equilibria of the belief rows `thetas` (`_solve`) and the mask of
    the rows that put at most `_MASS_TOL` on states distinguishable at their loads.

    The sweep clusters the passing rows by used-edge set, and the boundary
    bisection also asks for its family's set.
    """
    eq = _solve(scenario, thetas)
    return eq, row_sum(thetas * _distinguishable(scenario, eq.edge_loads)) <= _MASS_TOL


def _face_states(scenario: Scenario, grid_n: int) -> np.ndarray:
    """Indices of the states that can hold mass at a rest point on the grid.

    Grid masses are multiples of 1/grid_n, so with _MASS_TOL < 1/grid_n a
    passing node puts no mass on a state distinguishable at its loads. At
    every equilibrium some route, and so each of its edges, carries at least
    lo = demand / n_routes. D_s holds the edges where the coefficients of
    c_s - c_true share one sign, so |c_s - c_true| does not fall with the
    load, and where it exceeds cost_tol at lo by a margin that covers
    rounding. A state is dropped when every route crosses its D_s. The
    tolerances cost_tol and used_tol are the scenario's.
    """
    network, model, demand = scenario.network, scenario.model, scenario.demand
    cost_tol, used_tol = scenario.tolerances.cost_equality, scenario.used_edge_tol
    true_idx = model.state_index(scenario.true_state)
    # route flows sum to demand only up to rounding
    lo = demand / network.n_routes * (1.0 - 1e-9)
    if not (_MASS_TOL < 1.0 / grid_n and used_tol < lo):
        return np.arange(model.n_states)
    coeffs = model._coeffs  # (E, S, C)
    diff = coeffs - coeffs[:, true_idx : true_idx + 1]
    one_sign = (diff >= 0.0).all(axis=-1) | (diff <= 0.0).all(axis=-1)
    size = polyval_ascending(np.abs(coeffs), demand)
    margin = 1e-9 * (size + size[:, true_idx : true_idx + 1])
    d_s = one_sign & (np.abs(polyval_ascending(diff, lo)) > cost_tol + margin)
    d_s[:, true_idx] = False
    return np.flatnonzero(~(network.incidence.T @ d_s > 0).all(axis=0))


_BISECT_LEVELS = 4  # halvings whose midpoints one predicate call evaluates


def _bisect_boundary(predicate, x_fail: float, x_pass: float, tol: float) -> float:
    """Refine a pass/fail boundary; returns the passing-side endpoint.

    Halves [x_fail, x_pass] toward the boundary, each midpoint 0.5 * (lo + hi),
    until the endpoints are within `tol` or a midpoint rounds onto one of
    them. `predicate` maps an array of points to their pass mask. One call
    evaluates every midpoint the next `_BISECT_LEVELS` halvings could need,
    up to 2**_BISECT_LEVELS - 1 of them, and the walk down that tree takes
    the endpoints that probing one midpoint at a time would. A call that
    raises SolverError had a point that did not converge, which may lie off
    the walk; the walk then asks about its own points one at a time, so only
    a point on it can raise.
    """
    lo, hi = x_fail, x_pass
    size = 2**_BISECT_LEVELS - 1
    while True:
        # node k spans (lo, hi); its midpoint passing leads to 2k + 1, failing to 2k + 2
        spans, probe, xs = {0: (lo, hi)}, {}, []
        for k in range(size):
            if k not in spans:
                continue
            a, b = spans[k]
            mid = 0.5 * (a + b)
            if abs(b - a) <= tol or mid == a or mid == b:
                continue
            probe[k] = len(xs)
            xs.append(mid)
            spans[2 * k + 1], spans[2 * k + 2] = (a, mid), (mid, b)
        if not xs:
            return hi
        xs = np.array(xs)
        try:
            passed = predicate(xs)
        except SolverError:
            passed = None
        k = 0
        while k in probe:
            i = probe[k]
            if predicate(xs[i : i + 1])[0] if passed is None else passed[i]:
                hi, k = xs[i], 2 * k + 1
            else:
                lo, k = xs[i], 2 * k + 2
        if k < size:
            return hi


def enumerate_rest_points(
    scenario: Scenario,
    grid_n: int,
    *,
    chunk_size: int = 200_000,
) -> RestPointReport:
    """Sweep the belief simplex for the scenario's rest points and cluster them into families.

    Evaluates the rest-point predicate at the grid nodes theta with
    components k/grid_n (equilibrium solved in blocks of `chunk_size`
    rows, raising SolverError, which names the belief, for a node that does
    not converge), clusters passing nodes by their used-edge set, and for
    families supported on exactly two states refines the boundary of the
    belief range by bisection down to `_REFINE_TOL`, from the family's first
    and last grid node toward their failing neighbours on the grid edge.
    The sweep and the bisection screen their beliefs with
    `_rest_point_screen`. The bisection solves the midpoints of four
    halvings, up to 15 beliefs, in one block (`_bisect_boundary`); a
    midpoint off its path that does not converge does not raise.
    `chunk_size` must be a positive integer, or ValueError names it. Used
    edges and equal costs are the scenario's (`used_edge_tol`,
    `tolerances.cost_equality`).

    Only the face of the grid where rest points can lie is solved: when
    _MASS_TOL < 1/grid_n and the used-edge tolerance is below
    demand / n_routes, states that are distinguishable at every equilibrium
    are left out (`_face_states`), and the result is the full sweep's.
    `n_nodes` counts every node of the full grid; `max_solver_gap` is the
    largest gap over the solved nodes.
    """
    network, model = scenario.network, scenario.model
    n_states = model.n_states
    if n_states > 6:
        raise ValueError("simplex grid enumeration is limited to at most 6 states")
    if grid_n < 1:
        raise ValueError("grid_n must be at least 1")
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, numbers.Integral) or chunk_size < 1:
        raise ValueError(f"chunk_size must be a positive integer, not {chunk_size!r}")
    used_tol = scenario.used_edge_tol

    clusters: dict[int, _ClusterAccumulator] = {}
    n_passing = 0
    max_gap = 0.0

    keep = _face_states(scenario, grid_n)
    for face in _simplex_grid_chunks(len(keep), grid_n, chunk_size):
        thetas = np.zeros((len(face), n_states))
        thetas[:, keep] = face
        eq, passing = _rest_point_screen(scenario, thetas)
        max_gap = max(max_gap, float(eq.gap.max()))
        n_passing += int(passing.sum())
        if not passing.any():
            continue
        th_pass = thetas[passing]
        ld_pass = eq.edge_loads[passing]
        for used, sel in row_groups(used_edges(network, ld_pass, used_tol)):
            key = _used_key(used)
            acc = clusters.get(key)
            if acc is None:
                acc = clusters[key] = _ClusterAccumulator(n_states, network.n_edges)
            acc.add(th_pass[sel], ld_pass[sel])

    families = []
    for key, acc in sorted(clusters.items()):
        used_labels = tuple(
            e for i, e in enumerate(network.edge_ids) if key >> i & 1
        )
        support_idx = np.flatnonzero(acc.support_mask)
        support_labels = tuple(model.states[i] for i in support_idx)
        mean_loads = acc.load_sum / acc.count
        thresholds = {
            model.states[i]: (float(acc.theta_min[i]), float(acc.theta_max[i]))
            for i in support_idx
        }
        refined = len(support_idx) == 2
        if refined:
            # the family's nodes are the passing nodes of the grid edge between
            # its two states, so its extreme masses on state i are the first
            # and last passing k / grid_n; the bisection starts from them
            i, j = int(support_idx[0]), int(support_idx[1])
            want = np.array([key >> b & 1 for b in range(network.n_edges)], dtype=bool)

            def at(xs: np.ndarray) -> np.ndarray:
                thetas = np.zeros((len(xs), n_states))
                thetas[:, i] = xs
                thetas[:, j] = 1.0 - xs
                eq, ok = _rest_point_screen(scenario, thetas)
                return ok & (used_edges(network, eq.edge_loads, used_tol) == want).all(axis=1)

            lo, hi = acc.theta_min[i], acc.theta_max[i]
            lo_k, hi_k = round(lo * grid_n), round(hi * grid_n)
            if lo_k > 0:
                lo = _bisect_boundary(at, (lo_k - 1) / grid_n, lo, _REFINE_TOL)
            if hi_k < grid_n:
                hi = _bisect_boundary(at, (hi_k + 1) / grid_n, hi, _REFINE_TOL)
            thresholds[model.states[i]] = (float(lo), float(hi))
            thresholds[model.states[j]] = (float(1.0 - hi), float(1.0 - lo))

        rep = acc.rep
        check = check_rest_point(
            scenario, Belief(rep), mean_loads, load_tol=1e-7, mass_tol=_MASS_TOL
        )
        families.append(
            RestPointFamily(
                used=used_labels,
                support=support_labels,
                loads=mean_loads,
                n_nodes=acc.count,
                representative=rep,
                thresholds=thresholds,
                refined=refined,
                average_cost_true=average_cost(scenario, mean_loads),
                check=check,
            )
        )

    families.sort(key=lambda f: -len(f.used))
    return RestPointReport(
        families=tuple(families),
        grid_n=grid_n,
        n_nodes=math.comb(grid_n + n_states - 1, n_states - 1),
        n_passing=n_passing,
        max_solver_gap=max_gap,
    )


@dataclass(frozen=True)
class AverageCostEntry:
    used: tuple[str, ...]
    rest_cost: float
    ok: bool


@dataclass(frozen=True)
class AverageCostComparison:
    """Average-cost comparison of rest points against the known-state optimum.

    Only meaningful on series-parallel networks; `applicable` is False
    otherwise and no entries are produced. A rest point passes when its cost
    is at least the complete-information cost less the scenario's
    `tolerances.cost_equality`.
    """

    applicable: bool
    complete_info_cost: float | None
    entries: tuple[AverageCostEntry, ...]
    ok: bool


def compare_average_costs(scenario: Scenario, families) -> AverageCostComparison:
    if not is_series_parallel(scenario.network):
        return AverageCostComparison(False, None, (), True)
    model = scenario.model
    truth = Belief.point_mass(model.n_states, model.state_index(scenario.true_state))
    eq = solve_wardrop(scenario.network, model, truth, scenario.demand)
    base = average_cost(scenario, eq.edge_loads)
    tol = scenario.tolerances.cost_equality
    entries = [
        AverageCostEntry(f.used, f.average_cost_true, f.average_cost_true >= base - tol)
        for f in families
    ]
    return AverageCostComparison(True, base, tuple(entries), all(e.ok for e in entries))


@dataclass(frozen=True)
class ConditionReport:
    """Which of the three complete-learning conditions the scenario meets.

    Witnesses carry the first counterexample found: for condition 1 a
    (state, route) pair with no separating edge, for condition 2 an edge
    whose free-flow time depends on the state, for condition 3 a
    (state, edge) pair where the known-state equilibrium leaves the edge
    unused, with the edge's load.
    """

    fully_distinguishable: bool
    witness_distinguishable: tuple | None
    state_independent_free_flow: bool
    witness_free_flow: tuple | None
    all_edges_used: bool
    witness_utilization: tuple | None

    @property
    def any_holds(self) -> bool:
        return (
            self.fully_distinguishable
            or self.state_independent_free_flow
            or self.all_edges_used
        )


def check_complete_learning_conditions(scenario: Scenario) -> ConditionReport:
    """Decide the scenario's three sufficient conditions from its parametric cost table.

    Function identity is decided by exact coefficient comparison, never by
    sampling, so knife-edge equalities cannot slip through. Condition 1 is
    checked route by route: a state is distinguishable under every feasible
    load exactly when each route carries at least one edge whose cost
    function differs from the truth, because any feasible load fully uses at
    least one route. Condition 3 asks that every edge be used, under the
    scenario's used-edge rule, at every known-state equilibrium.
    """
    network, model = scenario.network, scenario.model
    coeffs = model._coeffs
    true_idx = model.state_index(scenario.true_state)
    states, edges = model.states, model.edges

    # routes (rows) on which a state (column) differs from the truth nowhere
    differs = (coeffs != coeffs[:, true_idx : true_idx + 1]).any(axis=-1)  # (E, S)
    hidden = network.incidence.T @ differs == 0
    hidden[:, true_idx] = False
    wit1 = None
    if hidden.any():
        j = int(np.argmax(hidden.any(axis=0)))
        wit1 = (states[j], int(np.argmax(hidden[:, j])))

    intercepts = coeffs[:, :, 0]
    moved = intercepts != intercepts[:, :1]  # (E, S)
    wit2 = None
    if moved.any():
        i, j = np.unravel_index(np.argmax(moved), moved.shape)
        wit2 = (edges[i], states[j], float(intercepts[i, j]), float(intercepts[i, 0]))

    # The first state whose known-state equilibrium leaves an edge unused is
    # the witness, with its least-loaded edge. A solve that fails at or before
    # it is an error; the states after it are not examined.
    eq = solve_wardrop_batch(network, model, np.eye(model.n_states), scenario.demand)
    unused = ~used_edges(network, eq.edge_loads, scenario.used_edge_tol).all(axis=1)
    stop = np.flatnonzero(unused | ~eq.converged)
    wit3 = None
    if stop.size:
        j = int(stop[0])
        if not eq.converged[j]:
            eq.raise_unconverged()
        low = int(np.argmin(eq.edge_loads[j]))
        wit3 = (states[j], edges[low], float(eq.edge_loads[j, low]))

    return ConditionReport(wit1 is None, wit1, wit2 is None, wit2, wit3 is None, wit3)
