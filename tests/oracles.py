"""Independent reference implementations used only to cross-check the package.

Everything here deliberately avoids the production code paths: the
two-route solver is closed-form algebra, the Wardrop certificate recomputes
route costs from route flows, the series-parallel oracle searches over every
reduction order, and instance generators build inputs from scratch. The
reference stage loop is the per-seed loop that the lockstep block loop
replaced, with its own one-row observation record and its own used-edge
and realized-cost helpers, the reference rest-point analysis is the
label-based loop that the index-mask kernel replaced, and the reference
sweep at the end solves every node of the simplex grid where the package
solves only the face rest points can lie on. The reference grid generator and row
grouping are the itertools and dict loops that numpy replaced. All are
kept as the slow paths the package is checked against. The exact
equilibrium solve is scipy.optimize.root on the equal-cost system of the
reference loop's active route set, certified at 1e-12, for comparisons the
reference loop's 1e-8 gap is too coarse for. `certify_nothing` stands in
for the face polish where a test needs a row that no round certifies. The
reference trajectory writer is the csv.writer loop that formats one cell at a time,
which the one-format-per-row writer replaced. The reference bisection
probes one midpoint at a time, where the package probes four halvings'
midpoints in one block, and the oracles mix cost coefficients with their
own einsum, which the package's in-place accumulation replaced.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import importlib.util
import itertools
import sys
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import root

from routelearn.analysis import (
    RestPointFamily,
    RestPointReport,
    _ClusterAccumulator,
    _distinguishable,
    average_cost,
    check_rest_point,
)
from routelearn.costs import (
    Belief,
    CostFunction,
    CostModel,
    polyint_ascending,
    polyval_ascending,
)
from routelearn.dynamics import CONVERGED, MAX_STAGES, NoiseSampler
from routelearn.equilibrium import (
    DEFAULT_TOL,
    EquilibriumResult,
    solve_wardrop,
    solve_wardrop_batch,
)
from routelearn.errors import BeliefError, SolverError
from routelearn.graph import Network
from routelearn.scenario import Scenario, Tolerances


def table_scenario(
    network: Network, model: CostModel, true_state: str, demand: float, **tolerances
) -> Scenario:
    """A scenario around a network and cost table, for the functions that take one.

    `tolerances` are `Tolerances` fields; the initial belief is uniform.
    """
    return Scenario(
        name="table",
        network=network,
        true_state=true_state,
        model=model,
        demand=demand,
        initial_belief=Belief.uniform(model.n_states),
        tolerances=Tolerances(**tolerances),
    )


def known_state(model: CostModel, state: str) -> Belief:
    """The point-mass belief on `state`: the belief of travelers who know the state."""
    return Belief.point_mass(model.n_states, model.state_index(state))


def _mixed(model: CostModel, theta: Belief) -> np.ndarray:
    """Belief-weighted cost coefficients, shape (n_edges, degree + 1)."""
    return np.einsum("esc,ns->nec", model._coeffs, theta.probs[None, :])[0]


def two_route_affine_loads(network: Network, model: CostModel, theta: Belief, demand: float) -> np.ndarray:
    """Closed-form equilibrium loads for a 2-route network with affine mixtures.

    The route-cost difference is affine in the first route's flow, so the
    equilibrium is the clamped root of one linear equation.
    """
    assert network.n_routes == 2
    mixed = _mixed(model, theta)
    slopes, intercepts = mixed[:, 1], mixed[:, 0]
    inc = network.incidence
    delta = inc[:, 0] - inc[:, 1]
    g_slope = float(slopes @ (delta * delta))
    w_at_zero = inc[:, 1] * demand
    g0 = float(delta @ (slopes * w_at_zero + intercepts))
    if g_slope <= 0.0:
        q1 = demand / 2.0  # identical routes; loads do not depend on the split
    else:
        q1 = float(np.clip(-g0 / g_slope, 0.0, demand))
    return inc @ np.array([q1, demand - q1])


@dataclass(frozen=True)
class WardropCertificate:
    ok: bool
    worst_violation: float
    min_route_cost: float
    route_costs: np.ndarray
    used_routes: tuple[int, ...]


def verify_equilibrium(
    network: Network,
    model: CostModel,
    theta: Belief,
    result,
    tol: float,
    *,
    flow_tol: float | None = None,
) -> WardropCertificate:
    """Recompute route costs and certify the no-better-route condition.

    A used route may cost more than the cheapest route by at most
    `tol * max(1, cheapest cost)`, the solver's own stop test: route costs
    of large polynomial loads carry rounding error relative to their size.
    Accepts a solver result or a raw route-flow vector. Returns a failing
    certificate (never raises) so callers can inspect the worst violation.
    """
    q = np.asarray(getattr(result, "route_flows", result), dtype=float)
    if q.shape != (network.n_routes,):
        raise ValueError(f"route flows have shape {q.shape}")
    mixed = _mixed(model, theta)
    w = network.incidence @ q
    t = network.incidence.T @ polyval_ascending(mixed, w)
    if flow_tol is None:
        flow_tol = 1e-9 * max(float(q.sum()), np.finfo(float).tiny)
    used = tuple(int(i) for i in np.flatnonzero(q > flow_tol))
    t_min = float(t.min())
    worst = max((float(t[i]) - t_min for i in used), default=0.0)
    return WardropCertificate(
        ok=worst <= tol * max(1.0, t_min),
        worst_violation=worst,
        min_route_cost=t_min,
        route_costs=t,
        used_routes=used,
    )


def sp_oracle(edges, origin, destination) -> bool:
    """Exhaustive series-parallel test: try every reduction order.

    Explores the full graph-rewriting state space (parallel merges and
    series contractions in any order) and reports whether any sequence
    reaches the single origin->destination edge.
    """
    start = tuple(sorted((e[0], e[1]) for e in edges))
    if not start:
        return False
    seen = {start}
    stack = [start]
    while stack:
        state = stack.pop()
        if len(state) == 1:
            if state[0] == (origin, destination):
                return True
            continue
        moves = []
        for i in range(len(state)):
            for j in range(i + 1, len(state)):
                if state[i] == state[j]:
                    moves.append(tuple(sorted(state[:j] + state[j + 1 :])))
        indeg = Counter(h for _, h in state)
        outdeg = Counter(t for t, _ in state)
        nodes = {v for e in state for v in e}
        for v in nodes:
            if v in (origin, destination):
                continue
            if indeg[v] == 1 and outdeg[v] == 1:
                (u, _) = next(e for e in state if e[1] == v)
                (_, x) = next(e for e in state if e[0] == v)
                if u == x:
                    continue
                remaining = list(state)
                remaining.remove((u, v))
                remaining.remove((v, x))
                remaining.append((u, x))
                moves.append(tuple(sorted(remaining)))
        for move in moves:
            if move not in seen:
                seen.add(move)
                stack.append(move)
    return False


def two_terminal_multigraphs(max_edges: int):
    """Yield every directed multigraph with at most `max_edges` edges in which
    each edge lies on some simple path from node 0 (origin) to node 1
    (destination). Nodes are drawn from {0, 1, 2, 3, 4, 5}; with five edges a
    path can pass through at most four interior nodes, so the pool is
    exhaustive up to relabeling.
    """
    nodes = range(6)
    pairs = [
        (u, v)
        for u in nodes
        for v in nodes
        if u != v and u != 1 and v != 0  # no exits from the sink, no entries to the source
    ]
    for k in range(1, max_edges + 1):
        for combo in itertools.combinations_with_replacement(pairs, k):
            if _every_edge_on_simple_path(combo):
                yield combo


def _every_edge_on_simple_path(edges) -> bool:
    pair_set = set(edges)
    adj = defaultdict(set)
    for u, v in pair_set:
        adj[u].add(v)
    on_path = set()
    stack = [(0, (0,))]
    while stack:
        node, path = stack.pop()
        if node == 1:
            on_path.update(zip(path, path[1:]))
            continue
        for nxt in adj[node]:
            if nxt not in path:
                stack.append((nxt, path + (nxt,)))
    return pair_set <= on_path


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return m @ m.T + 0.5 * n * np.eye(n)


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(n))
    p = np.maximum(p, 0.0)
    return p / p.sum()


def random_two_route_instance(rng: np.random.Generator):
    """Random 2-route network with affine costs, possibly sharing edges."""
    n_shared = int(rng.integers(0, 3))
    shared = [f"s{i}" for i in range(n_shared)]
    own0 = [f"a{i}" for i in range(int(rng.integers(1, 3)))]
    own1 = [f"b{i}" for i in range(int(rng.integers(1, 3)))]
    edges = shared + own0 + own1
    network = Network(edges, [own0 + shared, own1 + shared])
    n_states = int(rng.integers(1, 4))
    states = [f"st{j}" for j in range(n_states)]
    table = {
        (e, s): CostFunction.affine(
            slope=0.2 + float(rng.uniform(0.0, 3.0)),
            intercept=float(rng.uniform(0.0, 10.0)),
        )
        for e in edges
        for s in states
    }
    model = CostModel(edges, states, table, np.eye(len(edges)))
    theta = Belief(random_simplex(rng, n_states))
    demand = float(rng.uniform(0.5, 5.0))
    return network, model, theta, demand


def random_multi_route_instance(rng: np.random.Generator, max_degree: int = 1):
    """Random network with 2 to 4 routes; costs affine or, from max_degree 2
    on, about half of them polynomials of degree max_degree."""
    n_routes = int(rng.integers(2, 5))
    n_shared = int(rng.integers(0, 3))
    shared = [f"s{i}" for i in range(n_shared)]
    routes = []
    edges = list(shared)
    for r in range(n_routes):
        own = [f"r{r}e{i}" for i in range(int(rng.integers(1, 3)))]
        edges.extend(own)
        take = [s for s in shared if rng.random() < 0.6]
        routes.append(own + take)
    for s in shared:  # every edge must lie on at least one route
        if not any(s in r for r in routes):
            routes[0].append(s)
    network = Network(edges, routes)
    n_states = int(rng.integers(1, 4))
    states = [f"st{j}" for j in range(n_states)]
    table = {}
    for e in edges:
        for s in states:
            if max_degree >= 2 and rng.random() < 0.5:
                table[(e, s)] = CostFunction.polynomial(
                    [
                        float(rng.uniform(0.0, 5.0)),
                        0.2 + float(rng.uniform(0.0, 2.0)),
                        *rng.uniform(0.0, 1.0, max_degree - 1).tolist(),
                    ]
                )
            else:
                table[(e, s)] = CostFunction.affine(
                    slope=0.2 + float(rng.uniform(0.0, 3.0)),
                    intercept=float(rng.uniform(0.0, 10.0)),
                )
    model = CostModel(edges, states, table, np.eye(len(edges)))
    theta = Belief(random_simplex(rng, n_states))
    demand = float(rng.uniform(0.5, 5.0))
    return network, model, theta, demand


def wheatstone_network() -> Network:
    """Four-node bridge network: five edges, three routes, not series-parallel."""
    return Network(
        ["oa", "ob", "ad", "bd", "ab"],
        [["oa", "ad"], ["ob", "bd"], ["oa", "ab", "bd"]],
    )


def wheatstone_poly_payload() -> dict:
    """Scenario payload on the Wheatstone bridge with degree-4 outer edges.

    Outer edges cost intercept + w + k w^4: the cheap-entry pair oa, bd has
    intercept 2 and k = 6, the other pair intercept 6 and k = 1; the bridge
    ab costs 1 + 0.5 w. A compromised oa or bd triples its k, a compromised
    bridge costs 1 + 3 w. The zig-zag oa-ab-bd is cheapest at free flow, and
    every route carries flow in every state.
    """
    healthy = {
        "oa": [2.0, 1.0, 0.0, 0.0, 6.0],
        "ob": [6.0, 1.0, 0.0, 0.0, 1.0],
        "ad": [6.0, 1.0, 0.0, 0.0, 1.0],
        "bd": [2.0, 1.0, 0.0, 0.0, 6.0],
        "ab": [1.0, 0.5],
    }
    network = wheatstone_network()
    states = ["oa", "bd", "ab", "none"]
    costs = []
    for e in network.edge_ids:
        for s in states:
            coeffs = list(healthy[e])
            if s == e == "ab":
                coeffs[1] = 3.0
            elif s == e:
                coeffs[4] *= 3.0
            costs.append(
                {"edge": e, "state": s, "form": "polynomial", "params": {"coefficients": coeffs}}
            )
    return {
        "schema_version": 1,
        "name": "wheatstone-poly",
        "network": {"edges": list(network.edge_ids), "routes": [list(r) for r in network.routes]},
        "states": states,
        "true_state": "none",
        "costs": costs,
        "sigma": np.eye(network.n_edges).tolist(),
        "demand": 1.0,
        "initial_belief": [0.25, 0.25, 0.25, 0.25],
    }


@functools.cache
def bench_reference():
    """The benchmark's reference module, bench/reference.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = reference  # its dataclasses look their module up
    spec.loader.exec_module(reference)
    return reference


def wheatstone_drain_table():
    """The benchmark's Wheatstone table (a `bench_reference().Table`) with the bridge at 3.8 + 0.5 w.

    The zig-zag route then costs 7.8 at free flow against 8 for the outer
    routes, so solves start on it, yet it carries no flow at any point-mass
    equilibrium: Frank-Wolfe alone drains it only at O(1/k).
    """
    table = bench_reference().wheatstone_table()
    coeffs = table.coeffs.copy()
    coeffs[table.edges.index("e5"), :, 0] = 3.8
    return dataclasses.replace(table, name="wheatstone-drain", coeffs=coeffs)


def grid_payload(r: int, c: int, g: int) -> dict:
    """Scenario payload on a directed r x c node grid, table g.

    Edges go right or down, listed node by node in row-major order, right
    before down; routes are every path from the top-left node to the
    bottom-right one, found depth first, right before down. With
    `np.random.default_rng(g)` the table draws 4 distinct compromised
    edges, then slopes from U(0.5, 2) and intercepts from U(1, 5), one per
    edge. State `s{k}` compromises the k-th drawn edge, tripling its slope
    and raising its intercept by 2; the truth is `none`. Identity noise,
    demand 1, uniform prior. Many routes share edges, so tied routes often
    have linearly dependent incidence columns (4 x 4: 24 edges, 20 routes).
    """
    edges, index = [], {}
    for i in range(r):
        for j in range(c):
            for step, ok in (("r", j + 1 < c), ("d", i + 1 < r)):
                if ok:
                    index[i, j, step] = len(edges)
                    edges.append(f"{step}{i}{j}")
    routes = []

    def walk(i, j, path):
        if (i, j) == (r - 1, c - 1):
            routes.append([edges[e] for e in path])
        if j + 1 < c:
            walk(i, j + 1, [*path, index[i, j, "r"]])
        if i + 1 < r:
            walk(i + 1, j, [*path, index[i, j, "d"]])

    walk(0, 0, [])
    rng = np.random.default_rng(g)
    hit = rng.choice(len(edges), 4, replace=False)
    slopes = rng.uniform(0.5, 2.0, len(edges))
    intercepts = rng.uniform(1.0, 5.0, len(edges))
    states = ["s0", "s1", "s2", "s3", "none"]
    costs = []
    for e, edge in enumerate(edges):
        for k, state in enumerate(states):
            bad = k < 4 and hit[k] == e
            params = {
                "slope": float(slopes[e] * (3.0 if bad else 1.0)),
                "intercept": float(intercepts[e] + (2.0 if bad else 0.0)),
            }
            costs.append({"edge": edge, "state": state, "form": "affine", "params": params})
    return {
        "schema_version": 1,
        "name": f"grid-{r}x{c}-g{g}",
        "network": {"edges": edges, "routes": routes},
        "states": states,
        "true_state": "none",
        "costs": costs,
        "sigma": np.eye(len(edges)).tolist(),
        "demand": 1.0,
        "initial_belief": [0.2] * 5,
    }


# --- Reference per-seed stage loop -----------------------------------------
# The stage loop as it was before seeds advanced in lockstep blocks: one
# scalar Frank-Wolfe solve, one triangular solve and one Bayes update per
# stage and seed. Kept verbatim so that the block loop in
# routelearn.dynamics can be checked against it bit for bit. Its observation
# is a one-row record of edge labels, built by its own used-edge and
# realized-cost helpers, so that it shares no code with the block loop's
# masks and NaN-filled cost rows.


@dataclass(frozen=True)
class ReferenceObservation:
    """Realized costs on the edges that carried traffic in one stage.

    `loads` is the full equilibrium edge-load vector; `costs` holds one entry
    per used edge, aligned with `used`.
    """

    used: tuple[str, ...]
    loads: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        used = tuple(str(e) for e in self.used)
        if not used:
            raise BeliefError("observation needs at least one used edge")
        if len(set(used)) != len(used):
            raise BeliefError("duplicate edges in observation")
        loads = np.array(self.loads, dtype=float)
        costs = np.array(self.costs, dtype=float)
        if loads.ndim != 1:
            raise BeliefError("loads must be a vector")
        if costs.shape != (len(used),):
            raise BeliefError(
                f"costs have shape {costs.shape}, expected ({len(used)},)"
            )
        if not np.isfinite(costs).all():
            raise BeliefError("observed costs must be finite")
        loads.setflags(write=False)
        costs.setflags(write=False)
        object.__setattr__(self, "used", used)
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "costs", costs)


def reference_used_edges(network: Network, loads, tol: float) -> frozenset[str]:
    """Edges carrying load strictly above `tol`."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    w = np.asarray(loads, dtype=float)
    if w.shape != (network.n_edges,):
        raise ValueError(f"load vector has shape {w.shape}, expected ({network.n_edges},)")
    return frozenset(e for e, we in zip(network.edge_ids, w) if we > tol)


def reference_realize_costs(
    model: CostModel, true_state: str, loads, used, noise
) -> ReferenceObservation:
    """Observation of true-state costs plus noise, restricted to used edges.

    Unused edges' realized costs are discarded; their noise components are
    consumed by the caller but never observed.
    """
    w = np.asarray(loads, dtype=float)
    eps = np.asarray(noise, dtype=float)
    order = sorted(used, key=model.edges.index)
    idx = [model.edges.index(e) for e in order]
    coeffs = model.state_coefficients(true_state)[idx]
    costs = polyval_ascending(coeffs, w[idx]) + eps[idx]
    return ReferenceObservation(used=tuple(order), loads=w, costs=costs)


class ReferenceStage(NamedTuple):
    stage: int
    belief_prior: Belief
    equilibrium: EquilibriumResult
    observation: ReferenceObservation
    belief_post: Belief


_REFERENCE_LOG_2PI = float(np.log(2.0 * np.pi))
_REFERENCE_MAX_ITER = 100_000


def _reference_line_search(mixed: np.ndarray, w: np.ndarray, d: np.ndarray, affine: bool) -> float:
    """Exact step toward the all-or-nothing target.

    Minimizes the potential along w + g*d for g in [0, 1]. The directional
    derivative sum_e cost_e(w + g d) d_e is nondecreasing in g, so the affine
    case has a closed form and the general case bisects on its sign.
    """
    if affine:
        num = -float(polyval_ascending(mixed, w) @ d)
        den = float(mixed[:, 1] @ (d * d))
        if den <= 0.0:
            # direction changes no loaded edge; any step is equivalent
            return 1.0
        return min(1.0, max(0.0, num / den))
    if float(polyval_ascending(mixed, w + d) @ d) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(polyval_ascending(mixed, w + mid * d) @ d) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _reference_face_polish(
    inc: np.ndarray, mixed: np.ndarray, demand: float, q: np.ndarray, rmin: int
) -> np.ndarray | None:
    """Equalize expected costs on the active route set (affine mixtures).

    Solves the equal-cost linear system restricted to the currently positive
    routes plus the cheapest one, dropping negative flows active-set style.
    Returns the polished flows only when they satisfy the equilibrium
    conditions to near machine precision, else None.
    """
    slopes, intercepts = mixed[:, 1], mixed[:, 0]
    route_slope = inc.T @ (slopes[:, None] * inc)
    route_free = inc.T @ intercepts
    active = sorted(set(np.flatnonzero(q > 1e-12 * demand)) | {rmin})
    while True:
        k = len(active)
        if k == 1:
            sol = np.array([demand])
            break
        m = np.zeros((k, k))
        rhs = np.zeros(k)
        base = active[-1]
        for i, r in enumerate(active[:-1]):
            m[i] = route_slope[r, active] - route_slope[base, active]
            rhs[i] = route_free[base] - route_free[r]
        m[k - 1] = 1.0
        rhs[k - 1] = demand
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            return None
        if sol.min() >= -1e-12 * demand:
            sol = np.maximum(sol, 0.0)
            break
        active.pop(int(np.argmin(sol)))
    q_new = np.zeros(inc.shape[1])
    q_new[active] = sol
    q_new[active[int(np.argmax(sol))]] += demand - q_new.sum()

    t = inc.T @ polyval_ascending(mixed, inc @ q_new)
    common = float(t[active].mean())
    scale = 1e-9 * (1.0 + abs(common))
    if np.max(np.abs(t[active] - common)) > scale:
        return None
    if float(t.min()) < common - scale:
        return None
    return q_new


def reference_solve_wardrop(
    network: Network,
    model: CostModel,
    theta: Belief,
    demand: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = _REFERENCE_MAX_ITER,
    init_route: int | None = None,
) -> EquilibriumResult:
    """Equilibrium route flows and edge loads for one belief.

    Iterates all-or-nothing assignment to the cheapest route with exact line
    search, stopping once the relative duality gap or the no-better-route
    certificate falls below `tol`. Ties in the cheapest route go to the
    lowest index so runs are deterministic.
    """
    if demand <= 0:
        raise ValueError("demand must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if len(theta) != model.n_states:
        raise SolverError(
            f"belief has {len(theta)} entries, model has {model.n_states} states"
        )
    model.ensure_slope_bound()

    inc = network.incidence
    n_routes = network.n_routes
    mixed = _mixed(model, theta)
    affine = mixed.shape[1] == 2 or not np.any(mixed[:, 2:])
    flow_tol = 1e-9 * demand
    tiny = np.finfo(float).tiny

    if init_route is None:
        t0 = inc.T @ polyval_ascending(mixed, np.zeros(network.n_edges))
        start = int(np.argmin(t0))
    else:
        start = int(init_route)
        if not 0 <= start < n_routes:
            raise ValueError(f"init_route {start} out of range")
    q = np.zeros(n_routes)
    q[start] = demand

    best_lb = -np.inf
    prev_phi = np.inf
    converged = False
    rmin = 0
    it = 0

    for it in range(1, max_iter + 1):
        w = inc @ q
        costs = polyval_ascending(mixed, w)
        t = inc.T @ costs
        phi = float(polyint_ascending(mixed, w).sum())
        assert phi <= prev_phi + 1e-9 * (1.0 + abs(prev_phi)), "potential increased"
        prev_phi = phi

        rmin = int(np.argmin(t))
        abs_gap = float(t @ q - t[rmin] * demand)
        best_lb = max(best_lb, phi - abs_gap)
        rel_gap = (phi - best_lb) / max(abs(phi), tiny)
        used = q > flow_tol
        worst = float(np.max(t[used]) - t[rmin]) if used.any() else 0.0
        if rel_gap <= tol or worst <= tol * max(1.0, abs(t[rmin])):
            converged = True
            break

        y = np.zeros(n_routes)
        y[rmin] = demand
        d = inc @ (y - q)
        gamma = _reference_line_search(mixed, w, d, affine)
        if gamma >= 1.0:
            q = y
        else:
            q = q + gamma * (y - q)

    if affine:
        polished = _reference_face_polish(inc, mixed, demand, q, rmin)
        if polished is not None:
            q = polished
            converged = True

    # final certificates at the returned point
    q = q.copy()
    q.setflags(write=False)
    w = inc @ q
    w.setflags(write=False)
    t = inc.T @ polyval_ascending(mixed, w)
    phi = float(polyint_ascending(mixed, w).sum())
    rmin = int(np.argmin(t))
    abs_gap = float(t @ q - t[rmin] * demand)
    best_lb = max(best_lb, phi - abs_gap)
    rel_gap = max(0.0, (phi - best_lb) / max(abs(phi), tiny))
    prev_phi = phi
    if rel_gap <= tol:
        converged = True
    result = EquilibriumResult(
        route_flows=q,
        edge_loads=w,
        gap=float(rel_gap),
        route_costs=t,
        n_iterations=it,
        potential=float(prev_phi),
    )
    if not converged:
        raise SolverError(
            f"no convergence within {max_iter} iterations (relative gap {rel_gap:.3e})",
            best=result,
        )
    return result


def reference_block_evaluation(
    network: Network, model: CostModel, probs: np.ndarray, flows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge loads, route costs and potentials at each row of route flows,
    evaluated afresh for the whole block, as the block solver's final step
    once did for every row."""
    coef = np.einsum("esc,ns->nec", model._coeffs, probs).transpose(2, 0, 1).copy()
    w = np.matvec(network.incidence, flows)
    t = np.matvec(network.incidence.T, polyval_ascending(coef, w, axis=0))
    phi = np.add.reduce(polyint_ascending(coef, w, axis=0), axis=1)
    return w, t, phi


def certify_nothing(inc, coef, pcoef, demand, q, loads, edge_costs, costs, settled):
    """A stand-in for `equilibrium._face_polish` that certifies no row in
    one round and writes nothing, so only the stop test at the start point
    can certify a row."""
    return np.zeros(len(q), dtype=bool), np.ones(len(q), dtype=np.intp)


def exact_solve_wardrop(
    network: Network,
    model: CostModel,
    theta: Belief,
    demand: float,
    *,
    init_route: int | None = None,
    **_,
) -> EquilibriumResult:
    """Equilibrium accurate to rounding, for any cost form.

    The reference Frank-Wolfe loop (at most 2,000 iterations, started on
    `init_route` when given) guesses the active route set, and
    scipy.optimize.root solves that set's equal-cost
    system. A negative flow drops its route and an unused route cheaper
    than the used ones joins, until `verify_equilibrium` certifies the flows
    at 1e-12; no certified set raises AssertionError. Accepts and ignores
    the solver keywords, so it can stand in for `reference_solve_wardrop`.
    """
    try:
        guess = reference_solve_wardrop(
            network, model, theta, demand, max_iter=2000, init_route=init_route
        )
    except SolverError as err:
        guess = err.best
    inc = network.incidence
    mixed = _mixed(model, theta)
    slopes = mixed[:, 1:] * np.arange(1, mixed.shape[1])
    active = sorted(np.flatnonzero(guess.route_flows > 1e-9 * demand))
    for _ in range(4 * network.n_routes):
        sub = inc[:, active]

        def equal_costs(f):
            t = sub.T @ polyval_ascending(mixed, sub @ f)
            return np.append(t[:-1] - t[-1], f.sum() - demand)

        def jacobian(f):
            j = sub.T @ (polyval_ascending(slopes, sub @ f)[:, None] * sub)
            return np.vstack([j[:-1] - j[-1], np.ones(len(active))])

        start = np.maximum(guess.route_flows[active], 0.0) + 1e-3 * demand
        sol = root(equal_costs, start * demand / start.sum(), jac=jacobian, tol=1e-15)
        if sol.x.min() < 0.0:
            active.pop(int(np.argmin(sol.x)))
            continue
        q = np.zeros(network.n_routes)
        q[active] = sol.x
        cert = verify_equilibrium(network, model, theta, q, tol=1e-12)
        if cert.ok:
            w = inc @ q
            t = cert.route_costs
            phi = float(polyint_ascending(mixed, w).sum())
            return EquilibriumResult(
                route_flows=q,
                edge_loads=w,
                gap=float((t @ q - t.min() * demand) / phi),
                route_costs=t,
                n_iterations=guess.n_iterations,
                potential=phi,
            )
        cheapest = int(np.argmin(cert.route_costs))
        assert cheapest not in active, f"worst violation {cert.worst_violation:.3e}"
        active = sorted([*active, cheapest])
    raise AssertionError("no active route set was certified")


def reference_cost_matrix(model: CostModel, loads, edge_indices) -> np.ndarray:
    """Per-state costs on the selected edges, shape (..., S, m).

    One scalar Horner evaluation of `model._coeffs[idx]` per load, state and
    edge, in Python floats.
    """
    idx = [int(i) for i in edge_indices]
    coeffs = model._coeffs[idx].tolist()  # [edge][state][power]
    w = np.asarray(loads, dtype=float)
    out = np.empty(w.shape[:-1] + (model.n_states, len(idx)))
    for pos in np.ndindex(w.shape[:-1]):
        for j, e in enumerate(idx):
            x = float(w[pos + (e,)])
            for s, c in enumerate(coeffs[j]):
                acc = c[-1]
                for ck in reversed(c[:-1]):
                    acc = acc * x + ck
                out[pos + (s, j)] = acc
    return out


def reference_log_likelihoods(model: CostModel, obs: ReferenceObservation) -> np.ndarray:
    """Log density of the observation under every state, shape (n_states,).

    The mean under state s is the state-s cost of each used edge at its
    observed load; the covariance is the noise submatrix on the used edges,
    factored by Cholesky on every call.
    """
    idx = tuple(model.edges.index(e) for e in obs.used)
    chol = np.linalg.cholesky(model.sigma[np.ix_(idx, idx)])
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    means = model.cost_matrix(obs.loads, idx)  # (S, m)
    resid = obs.costs[None, :] - means
    z = solve_triangular(chol, resid.T, lower=True, check_finite=False)
    quad = np.einsum("ms,ms->s", z, z)
    out = -0.5 * quad - 0.5 * len(idx) * _REFERENCE_LOG_2PI - 0.5 * logdet
    if not np.isfinite(out).all():
        raise BeliefError("non-finite log likelihood; check the cost table")
    return out


def reference_bayes_update(
    theta: Belief, model: CostModel, obs: ReferenceObservation
) -> Belief:
    """Posterior belief after one observation.

    States with zero prior mass stay at exactly zero; no probability floor is
    applied, so masses may reach numeric zero.
    """
    if len(theta) != model.n_states:
        raise BeliefError(
            f"belief has {len(theta)} entries, model has {model.n_states} states"
        )
    prior = theta.probs
    support = prior > 0.0
    log_post = np.log(prior[support]) + reference_log_likelihoods(model, obs)[support]
    weights = np.exp(log_post - log_post.max())
    total = float(weights.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise BeliefError("posterior mass vanished")
    out = np.zeros_like(prior)
    out[support] = weights / total
    return Belief(out)


def reference_step(
    scenario, belief: Belief, sampler: NoiseSampler, stage: int, solve=None
) -> ReferenceStage:
    """Play one stage: equilibrium at the belief, noisy costs, Bayes update.

    `solve` defaults to `reference_solve_wardrop`.
    """
    eq = (solve or reference_solve_wardrop)(
        scenario.network,
        scenario.model,
        belief,
        scenario.demand,
        tol=scenario.tolerances.equilibrium,
    )
    noise = sampler.sample()
    used = reference_used_edges(scenario.network, eq.edge_loads, scenario.used_edge_tol)
    obs = reference_realize_costs(
        scenario.model, scenario.true_state, eq.edge_loads, used, noise
    )
    post = reference_bayes_update(belief, scenario.model, obs)
    return ReferenceStage(stage, belief, eq, obs, post)


def reference_run(
    scenario,
    seed: int,
    *,
    solve=None,
) -> tuple[list[ReferenceStage], str]:
    """Run the learning dynamics until the stopping window triggers.

    Each stage's equilibrium comes from `solve`, by default
    `reference_solve_wardrop`.

    The process itself never stops, so under the scenario's stopping rule a
    trajectory is declared converged once both the belief and the load have
    moved less than delta (delta * demand for loads) between consecutive
    stages for `window` stages in a row. Stage-to-stage differences start
    at stage 2, so the earliest possible convergence is stage window + 1.
    """
    conv = scenario.convergence
    w_len, d_tol, cap = conv.window, conv.delta, conv.max_stages

    sampler = NoiseSampler(scenario.model.sigma, seed)
    theta = scenario.initial_belief
    records: list[ReferenceStage] = []
    diffs: deque[tuple[float, float]] = deque(maxlen=w_len)
    load_bound = d_tol * scenario.demand
    status = MAX_STAGES
    prev_post: np.ndarray | None = None
    prev_loads: np.ndarray | None = None

    for k in range(1, cap + 1):
        rec = reference_step(scenario, theta, sampler, k, solve)
        if prev_post is not None:
            diffs.append(
                (
                    float(np.max(np.abs(rec.belief_post.probs - prev_post))),
                    float(np.max(np.abs(rec.equilibrium.edge_loads - prev_loads))),
                )
            )
        prev_post = rec.belief_post.probs
        prev_loads = rec.equilibrium.edge_loads
        records.append(rec)
        theta = rec.belief_post
        if len(diffs) == w_len and all(
            td < d_tol and ld < load_bound for td, ld in diffs
        ):
            status = CONVERGED
            break

    return records, status


def reference_write_trajectory_csv(trajectory, path) -> Path:
    """The trajectory CSV through csv.writer, one `format(x, ".17g")` per cell."""
    scenario = trajectory.scenario
    edge_ids = scenario.network.edge_ids
    header = (
        ["stage"]
        + [f"theta_{s}" for s in scenario.model.states]
        + [f"w_{e}" for e in edge_ids]
        + [f"used_{e}" for e in edge_ids]
        + [f"c_{e}" for e in edge_ids]
    )
    stages = zip(
        trajectory.beliefs[1:].tolist(),
        trajectory.equilibria.edge_loads.tolist(),
        trajectory.used.tolist(),
        trajectory.costs.tolist(),
    )
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k, (probs, loads, used, costs) in enumerate(stages, start=1):
            row = [str(k)]
            row += [format(p, ".17g") for p in probs]
            row += [format(w, ".17g") for w in loads]
            row += ["1" if u else "0" for u in used]
            row += [format(c, ".17g") if u else "" for u, c in zip(used, costs)]
            writer.writerow(row)
    return path


# --- Reference rest-point analysis -----------------------------------------
# The label loops that enumerate_rest_points, check_rest_point and
# check_complete_learning_conditions used before they ran on index masks and
# block solves: one state, one route, one belief row at a time.


def reference_distinguishable_states(
    model: CostModel, true_state: str, loads, cost_tol: float = 1e-9, used_tol: float = 0.0
) -> frozenset[str]:
    """States whose cost differs from the truth on some edge loaded above used_tol."""
    w = np.asarray(loads, dtype=float)
    used = np.flatnonzero(w > used_tol)
    out = set()
    if used.size == 0:
        return frozenset(out)
    true_vals = polyval_ascending(model.state_coefficients(true_state)[used], w[used])
    for s in model.states:
        if s == true_state:
            continue
        vals = polyval_ascending(model.state_coefficients(s)[used], w[used])
        if np.any(np.abs(vals - true_vals) > cost_tol):
            out.add(s)
    return frozenset(out)


def reference_rest_point_passes(
    network: Network,
    model: CostModel,
    true_state: str,
    theta,
    demand: float,
    want_key: int,
    *,
    mass_tol: float,
    cost_tol: float,
    used_tol: float,
    solver_tol: float,
) -> bool:
    """One belief row: its equilibrium uses the edges of want_key and its
    mass on distinguishable states is at most mass_tol."""
    theta = Belief(theta)
    eq = solve_wardrop(network, model, theta, demand, tol=solver_tol)
    dist = reference_distinguishable_states(model, true_state, eq.edge_loads, cost_tol, used_tol)
    mass = float(sum(theta.probs[model.state_index(s)] for s in dist))
    if mass > mass_tol:
        return False
    used = reference_used_edges(network, eq.edge_loads, used_tol)
    key = sum(1 << network.edge_ids.index(e) for e in used)
    return key == want_key


def reference_complete_learning_conditions(
    network: Network, model: CostModel, true_state: str, demand: float, load_tol: float
) -> tuple:
    """(cond1, witness1, cond2, witness2, cond3, witness3), first witness by loop order."""
    coeffs = model._coeffs
    true_idx = model.state_index(true_state)

    wit1 = None
    for s in model.states:
        if s == true_state:
            continue
        j = model.state_index(s)
        for k, route in enumerate(network.routes):
            separating = any(
                not np.array_equal(
                    coeffs[model.edges.index(e), j], coeffs[model.edges.index(e), true_idx]
                )
                for e in route
            )
            if not separating:
                wit1 = (s, k)
                break
        if wit1 is not None:
            break

    wit2 = None
    intercepts = coeffs[:, :, 0]
    for i, e in enumerate(model.edges):
        for j, s in enumerate(model.states):
            if intercepts[i, j] != intercepts[i, 0]:
                wit2 = (e, s, float(intercepts[i, j]), float(intercepts[i, 0]))
                break
        if wit2 is not None:
            break

    wit3 = None
    for s in model.states:
        eq = solve_wardrop(network, model, known_state(model, s), demand)
        low = int(np.argmin(eq.edge_loads))
        if eq.edge_loads[low] <= load_tol:
            wit3 = (s, model.edges[low], float(eq.edge_loads[low]))
            break

    return (wit1 is None, wit1, wit2 is None, wit2, wit3 is None, wit3)


# --- Reference simplex grid and row grouping -------------------------------
# The itertools grid generator and the dict row grouping that numpy
# replaced. Combinations come in lexicographic order, which is the order of
# the counts.


def reference_simplex_grid_chunks(n_states: int, grid_n: int, chunk_size: int):
    """Yield (chunk, n_states) arrays covering the grid k/grid_n on the simplex."""
    if n_states == 1:
        yield np.ones((1, 1))
        return
    total_slots = grid_n + n_states - 1
    bars_iter = itertools.combinations(range(total_slots), n_states - 1)
    while True:
        batch = list(itertools.islice(bars_iter, chunk_size))
        if not batch:
            return
        bars = np.asarray(batch, dtype=np.int64)
        padded = np.concatenate(
            [
                np.full((len(bars), 1), -1, dtype=np.int64),
                bars,
                np.full((len(bars), 1), total_slots, dtype=np.int64),
            ],
            axis=1,
        )
        counts = np.diff(padded, axis=1) - 1
        yield counts / grid_n


def reference_row_groups(mask: np.ndarray):
    """Rows of a boolean matrix grouped by pattern: yields (pattern, row indices)."""
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(i)
    for rows in groups.values():
        yield mask[rows[0]], np.array(rows)


# --- Reference full simplex sweep ------------------------------------------
def reference_bisect_boundary(predicate, x_fail: float, x_pass: float, tol: float) -> float:
    """Refine a pass/fail boundary one midpoint at a time; returns the
    passing-side endpoint. Stops when the endpoints are within `tol` or a
    midpoint rounds onto one of them."""
    lo, hi = x_fail, x_pass
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


# enumerate_rest_points as it was before it swept only the face where rest
# points can lie: every node of the grid is solved, and each two-state
# family's boundary is found by scanning its grid edge and then bisecting,
# both with the one-row predicate above. The sweep itself runs on the
# package's kernels, so that the face sweep, and its bisection from the
# family's extreme nodes, can be checked against it.


def reference_enumerate_rest_points(
    scenario: Scenario,
    grid_n: int,
    *,
    chunk_size: int = 200_000,
) -> RestPointReport:
    """Sweep the belief simplex for rest points and cluster them into families.

    Evaluates the rest-point predicate at every grid node theta with
    components k/grid_n (equilibrium solved for all nodes in vectorized
    batches, raising SolverError for a node that does not converge),
    clusters passing nodes by their used-edge set, and for
    families supported on exactly two states refines the boundary of the
    belief range by bisection down to `refine_tol`. The three tolerances
    restate the sweep's constants.
    """
    mass_tol, refine_tol, solver_tol = 1e-9, 1e-6, 1e-10
    network, model, demand = scenario.network, scenario.model, scenario.demand
    true_state = scenario.true_state
    cost_tol, used_tol = scenario.tolerances.cost_equality, scenario.used_edge_tol
    n_states = model.n_states
    if n_states > 6:
        raise ValueError("simplex grid enumeration is limited to at most 6 states")
    if grid_n < 1:
        raise ValueError("grid_n must be at least 1")

    clusters: dict[int, _ClusterAccumulator] = {}
    n_nodes = 0
    n_passing = 0
    max_gap = 0.0

    for thetas in reference_simplex_grid_chunks(n_states, grid_n, chunk_size):
        n_nodes += len(thetas)
        eq = solve_wardrop_batch(network, model, thetas, demand, tol=solver_tol)
        eq.raise_unconverged()
        loads, gaps = eq.edge_loads, eq.gap
        max_gap = max(max_gap, float(gaps.max()))
        dist = _distinguishable(scenario, loads)
        residual = (thetas * dist).sum(axis=1)
        passing = residual <= mass_tol
        n_passing += int(passing.sum())
        if not passing.any():
            continue
        th_pass = thetas[passing]
        ld_pass = loads[passing]
        keys = [sum(1 << int(i) for i in np.flatnonzero(u)) for u in ld_pass > used_tol]
        for key in sorted(set(keys)):
            sel = np.array([k == key for k in keys])
            acc = clusters.get(key)
            if acc is None:
                acc = clusters[key] = _ClusterAccumulator(
                    n_states, network.n_edges
                )
            acc.add(th_pass[sel], ld_pass[sel])

    passes = functools.partial(
        reference_rest_point_passes, network, model, true_state, demand=demand,
        mass_tol=mass_tol, cost_tol=cost_tol, used_tol=used_tol, solver_tol=solver_tol,
    )

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
        refined = False
        if len(support_idx) == 2:
            i, j = int(support_idx[0]), int(support_idx[1])

            def face(xs: np.ndarray) -> np.ndarray:
                v = np.zeros((len(xs), n_states))
                v[:, i] = xs
                v[:, j] = 1.0 - xs
                return v

            def at(x: float) -> bool:
                return passes(face(np.array([x]))[0], want_key=key)

            xs = np.arange(grid_n + 1) / grid_n
            ok = np.array([passes(theta, want_key=key) for theta in face(xs)])
            if ok.any():
                lo_idx = int(np.argmax(ok))
                hi_idx = int(len(ok) - 1 - np.argmax(ok[::-1]))
                lo = xs[lo_idx]
                hi = xs[hi_idx]
                if lo_idx > 0:
                    lo = reference_bisect_boundary(at, xs[lo_idx - 1], lo, refine_tol)
                if hi_idx < len(xs) - 1:
                    hi = reference_bisect_boundary(at, xs[hi_idx + 1], hi, refine_tol)
                thresholds[model.states[i]] = (float(lo), float(hi))
                thresholds[model.states[j]] = (float(1.0 - hi), float(1.0 - lo))
                refined = True

        rep = acc.rep
        check = check_rest_point(
            scenario, Belief(rep), mean_loads, load_tol=1e-7, mass_tol=mass_tol
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
        n_nodes=n_nodes,
        n_passing=n_passing,
        max_solver_gap=max_gap,
    )
