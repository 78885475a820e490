"""Wardrop equilibria by Newton steps on each row's active route set.

The potential minimized is the sum over edges of the integral of the
belief-weighted cost, so its minimizers are exactly the equilibria and the
duality gap provides a no-better-route certificate. Each row is evaluated
at its start, a warm start or all-or-nothing flows on the route cheapest
at free flow, which gives a duality bound and a stop test. Then a finite
active-set, projected Newton method (Bertsekas & Gafni 1982; Jayakrishnan
et al. 1994) solves the equal-cost system of the row's active routes with
costs linearized at the current loads, exactly in one step for affine
mixtures, on a maximal independent subset of those routes. It drops
negative flows and adds the cheapest route until the true costs certify
the flows. Polynomial rows that the first round of steps leaves
uncertified backtrack, so that no later step raises the potential.
Interior solutions come out at machine precision and unused routes at
exactly zero flow.

Each point is evaluated once: a polynomial row linearizes at the loads and
edge costs of the evaluation that tested its last step, and a row's
certificates come from the evaluation that certified it, or the start's for
a row left at its start. While the stepping rows are the whole block, in
order, the polish reads its per-row arrays through views. The reported
relative gap bounds the row's suboptimality: it is the smaller of the
duality gap at the returned flows and the distance to the start's bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .costs import (
    Belief,
    CostModel,
    polyint_coefficients,
    polyval_ascending,
)
from .errors import CostError, SolverError
from .graph import Network, row_groups, row_max, row_min

DEFAULT_TOL = 1e-8
_TINY = np.finfo(float).tiny
_ROUND = 8  # Newton steps per round of the polish
_MAX_ROUNDS = 8  # rounds before a row is reported unconverged
_HALVINGS = 30  # backtracking steps before a polynomial row keeps its flows


@dataclass(frozen=True)
class EquilibriumResult:
    """One equilibrium route-flow representative and its certificates.

    Edge loads are essentially unique; route flows are one representative of
    a possibly larger optimal face, so downstream code must only rely on
    `edge_loads`.
    """

    route_flows: np.ndarray
    edge_loads: np.ndarray
    gap: float
    route_costs: np.ndarray
    n_iterations: int
    potential: float


@dataclass(frozen=True)
class EquilibriumBlock:
    """Equilibria of a block of beliefs, row i for belief i.

    Rows whose certificates did not meet the tolerance are marked False in
    `converged` and hold their start flows and the certificates there.
    """

    route_flows: np.ndarray
    edge_loads: np.ndarray
    gap: np.ndarray
    route_costs: np.ndarray
    n_iterations: np.ndarray
    potential: np.ndarray
    converged: np.ndarray

    def row(self, i: int) -> EquilibriumResult:
        return EquilibriumResult(
            route_flows=self.route_flows[i],
            edge_loads=self.edge_loads[i],
            gap=float(self.gap[i]),
            route_costs=self.route_costs[i],
            n_iterations=int(self.n_iterations[i]),
            potential=float(self.potential[i]),
        )

    def raise_unconverged(self) -> None:
        """Raise SolverError, with `row` set, for the first row that did not converge."""
        if self.converged.all():
            return
        i = int(np.argmin(self.converged))
        raise SolverError(
            f"no convergence after round {self.n_iterations[i]} "
            f"(relative gap {self.gap[i]:.3e})",
            best=self.row(i),
        ).at_row(i)


def _check_model(network: Network, model: CostModel) -> None:
    """Raise CostError unless the model fits the network and passes the slope bound.

    Solvers pair network incidence rows with cost-table rows by position,
    so the two must list the same edges in the same order.
    """
    if model.edges != network.edge_ids:
        raise CostError(
            f"edges: the cost model lists {list(model.edges)}, "
            f"the network {list(network.edge_ids)}; they must match in order"
        )
    model.ensure_slope_bound()


# Incidence products are stacked matrix-vector products (np.matvec) and
# per-row inner products are np.vecdot: each row then gets the bits a
# one-row solve gets, whatever rows share its block, which a matrix-matrix
# product would not promise.


def _potential(pcoef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Beckmann potential of each row of loads `w`, from the degree-major
    coefficients of `polyint_coefficients`."""
    return np.add.reduce(polyval_ascending(pcoef, w, axis=0) * w, axis=1)


@functools.lru_cache(maxsize=256)
def _independent(inc: bytes, n_routes: int, pattern: bytes) -> np.ndarray:
    """A maximal independent subset of the routes in a route mask.

    `inc` and `pattern` are the bytes of the (E, n_routes) incidence matrix
    and of the boolean mask. Each route's incidence column gets a 1
    appended for the demand row, and a route is kept unless its column
    depends on those of the routes kept before it. Cached, since it
    depends on nothing else: solvers ask once per active set and call.
    """
    cols = np.vstack([np.frombuffer(inc).reshape(-1, n_routes), np.ones(n_routes)])
    routes = np.flatnonzero(np.frombuffer(pattern, dtype=bool))
    keep = routes[:1]
    for r in routes[1:]:
        more = np.append(keep, r)
        if np.linalg.matrix_rank(cols[:, more]) == len(more):
            keep = more
    keep.setflags(write=False)
    return keep


def _backtrack(
    inc: np.ndarray, pcoef: np.ndarray, ceil: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backtracking on the Beckmann potential (Armijo's rule with no margin).

    For rows whose step from flows `x` to `y` took the potential above
    `ceil`: each row takes the first of the steps halved 1, 2, ... times
    that keeps it at most `ceil`, or stays at `x` when none of the first
    `_HALVINGS` does. Returns the flows stepped to, their loads and their
    potentials.
    """
    d = y - x
    y = x.copy()
    w = np.matvec(inc, x)
    phi = _potential(pcoef, w)
    todo = np.arange(len(x))
    for h in range(1, _HALVINGS + 1):
        yt = x[todo] + 0.5**h * d[todo]
        wt = np.matvec(inc, yt)
        pt = _potential(pcoef[:, todo], wt)
        fine = pt <= ceil[todo]
        rows = todo[fine]
        y[rows], w[rows], phi[rows] = yt[fine], wt[fine], pt[fine]
        todo = todo[~fine]
        if not todo.size:
            break
    return y, w, phi


def _face_polish(
    inc: np.ndarray,
    coef: np.ndarray,
    pcoef: np.ndarray,
    demand: float,
    q: np.ndarray,
    loads: np.ndarray,
    edge_costs: np.ndarray,
    costs: np.ndarray,
    settled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on the equal-cost system of each row's active route set.

    Each row starts from its flows in `q`, at `loads` and route `costs`.
    The active set is the row's positive routes plus its cheapest one. A
    step solves the equal-cost linear system on that set, with each edge
    cost linearized at the current loads (intercept c(w) - c'(w) w, slope
    c'(w)), and drops negative flows active-set style; rows with the same
    active set share one stacked solve. The system is solved on a maximal
    independent subset of the active routes, with a 1 appended to each
    incidence column for the demand row: it is singular exactly when those
    columns are dependent, and a dependent route's cost is then an affine
    combination of the kept routes' costs, equal to theirs when theirs are
    equal.

    Affine rows take their own coefficients, so one step solves their
    system exactly; such a row is certified when its new flows pass the
    equal-cost and no-cheaper-route test on the true costs. Other
    linearizations are exact only to second order, so those rows are
    certified when a step from flows that already pass passes again, which
    leaves them at rounding level. Certified rows leave, and the others
    step again from their new flows, with the cheapest route at them added
    to the set. A polynomial row linearizes at the loads and edge costs of
    the evaluation that tested its last step, at first `loads` and
    `edge_costs` (overwritten), so each point is evaluated once. While the
    stepping rows are the whole block, in order, groups read views.

    `_ROUND` steps make a round; rows in `settled` stop after the first
    round, the others after `_MAX_ROUNDS`. The first round takes full
    Newton steps; after it, polynomial rows step through `_backtrack`, so
    no later step raises their potential. Returns the mask of certified
    rows and the number of rounds each row took. Each certified row's flows
    are written into its row of `q`, and the loads and route costs at them,
    from the evaluation that certified them, into `loads` and `costs`;
    other rows of the three arrays are left as they were.
    """
    n, n_routes = q.shape
    affine = ~coef[2:].any(axis=(0, 2))
    flows = q.copy()  # each uncertified row's current flows
    active = flows > 1e-12 * demand
    active[np.arange(n), costs.argmin(axis=1)] = True
    # affine rows keep their own coefficients, their exact linearization
    icpt, slope = coef[0], coef[1]
    polynomial = not affine.all()
    if polynomial:
        icpt, slope = icpt.copy(), slope.copy()
        dcoef = coef[1:] * np.arange(1, len(coef))[:, None, None]  # c', degree-major
        at_w, at_c = loads.copy(), edge_costs  # loads and edge costs at each row's flows
        poly_rows = slice(None) if not affine.any() else np.flatnonzero(~affine)
    incidence = inc.tobytes()
    ok = np.zeros(n, dtype=bool)
    passed = np.zeros(n, dtype=bool)  # the current flows pass the cost test
    rounds = np.ones(n, dtype=np.intp)
    live = np.arange(n)
    whole = True  # `live` is every row of the block, in order
    for it in range(_ROUND * _MAX_ROUNDS):
        if it and not it % _ROUND:
            live, whole = live[~settled[live]], whole and not settled.any()
            rounds[live] += 1
            if polynomial and it == _ROUND:
                phi = _potential(pcoef, at_w)  # at each row's current flows
        if polynomial:
            lin = poly_rows if whole else live[~affine[live]]
            w = at_w[lin]
            slope[lin] = polyval_ascending(dcoef[:, lin], w, axis=0)
            icpt[lin] = at_c[lin] - slope[lin] * w
        again = []
        pending, view, whole = live, whole, False
        while pending.size:
            retry = []
            for pattern, sub in row_groups(active[pending]):
                rows = pending[sub]
                sel = slice(None) if view and len(sub) == n else rows  # the whole block, in order
                routes = _independent(incidence, n_routes, pattern.tobytes())
                k = len(routes)
                if k == 1:
                    sol = np.full((len(rows), 1), demand)
                else:
                    # each active route's cost minus the last one's, then the demand
                    inc_k = inc.take(routes, axis=1)  # C-ordered, unlike inc[:, routes]
                    s = inc_k.T @ (slope[sel, :, None] * inc_k)
                    m = s - s[:, -1:]
                    m[:, -1] = 1.0
                    f = np.matvec(inc.T, icpt[sel])[:, routes]
                    rhs = f[:, -1:] - f
                    rhs[:, -1] = demand
                    sol = np.linalg.solve(m, rhs[:, :, None])[:, :, 0]
                    drop = ~(row_min(sol) >= -1e-12 * demand)
                    if drop.any():
                        active[rows[drop], routes[np.argmin(sol[drop], axis=1)]] = False
                        retry.append(rows[drop])
                        rows, sol = rows[~drop], sol[~drop]
                        sel = rows

                cand = np.zeros((len(rows), n_routes))
                cand[:, routes] = np.maximum(sol, 0.0)
                top = routes[np.argmax(sol, axis=1)]
                cand[np.arange(len(rows)), top] += demand - np.add.reduce(cand, axis=1)
                wc = np.matvec(inc, cand)
                if polynomial and it >= _ROUND:
                    at = _potential(pcoef[:, sel], wc)
                    ceil = phi[sel] * (1.0 + 1e-12)  # potentials are sums of nonnegative terms
                    up = ~affine[sel] & (at > ceil)
                    if up.any():
                        r = rows[up]
                        cand[up], wc[up], at[up] = _backtrack(
                            inc, pcoef[:, r], ceil[up], flows[r], cand[up]
                        )
                    phi[sel] = at
                ec = polyval_ascending(coef[:, sel], wc, axis=0)
                if polynomial:  # where each row that steps again linearizes next
                    at_w[sel], at_c[sel] = wc, ec
                t = np.matvec(inc.T, ec)
                del ec  # its memory serves the cost test
                on = t[:, routes]
                common = np.add.reduce(on, axis=1) / k
                scale = 1e-9 * (1.0 + np.abs(common))
                bad = row_min(t) < common - scale
                if k > 1:
                    bad |= row_max(np.abs(on - common[:, None])) > scale
                # a step from flows that pass is exact to rounding
                good = ~bad & (affine[sel] | passed[sel])
                passed[sel] = ~bad
                whole = isinstance(sel, slice)  # every row steps again, unless one certifies
                if good.any():
                    fin = rows[good]
                    q[fin], loads[fin], costs[fin] = cand[good], wc[good], t[good]
                    ok[fin] = True
                    step = ~good
                    if not step.any():
                        continue
                    rows, cand, t, whole = rows[step], cand[step], t[step], False
                flows[rows] = cand
                active[rows] = cand > 1e-12 * demand
                active[rows, np.argmin(t, axis=1)] = True
                again.append(rows)
            pending, view = (np.concatenate(retry) if retry else pending[:0]), False
        if not again:
            break
        live = np.concatenate(again)
    return ok, rounds


def _start_flows(init_flows, n: int, n_routes: int, demand: float) -> np.ndarray:
    """A writable copy of the (n, R) starting route flows, checked."""
    q = np.array(init_flows, dtype=float)
    if q.shape != (n, n_routes):
        raise ValueError(f"init_flows has shape {q.shape}, expected {(n, n_routes)}")
    if not (np.isfinite(q).all() and (q >= 0.0).all()):
        raise ValueError("init_flows must be finite and nonnegative")
    off = np.abs(q.sum(axis=1) - demand) > 1e-9 * demand
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(f"init_flows row {i} sums to {q[i].sum()!r}, not the demand {demand!r}")
    return q


def solve_wardrop_batch(
    network: Network,
    model: CostModel,
    thetas,
    demand: float,
    *,
    tol: float = DEFAULT_TOL,
    init_flows=None,
) -> EquilibriumBlock:
    """Equilibria for a block of beliefs, one per row of `thetas`.

    Each row starts from its row of `init_flows`, an (n, R) array of route
    flows that sum to `demand`, or by default from all-or-nothing flows on
    the route cheapest at free flow. A start near the equilibrium, such as
    that of a nearby belief, saves the polish most of its Newton steps.
    The evaluation at the start gives each row a duality bound on its
    potential and a stop test: a relative duality gap or a no-better-route
    certificate below `tol`. Then `_face_polish` steps every row until it
    certifies its flows; a row the stop test passed keeps its start flows
    when the first round does not certify it. Ties in the cheapest route go
    to the lowest index so runs are deterministic, and every row gets the
    result it would get alone. `n_iterations` counts the rounds a row
    took. Rows that do not converge are reported in `converged`, not
    raised; a Newton step whose system is singular in floating point, as
    with costs near the float range, raises SolverError for the block.
    """
    if demand <= 0:
        raise ValueError("demand must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != model.n_states:
        raise ValueError(f"belief matrix has shape {thetas.shape}")
    _check_model(network, model)

    inc = network.incidence
    n, n_routes = len(thetas), network.n_routes
    # mixed cost coefficients, degree-major: coef[k] is the (n, E) degree-k slice
    coef = model.mixed_coefficients_batch(thetas).transpose(2, 0, 1).copy()
    pcoef = polyint_coefficients(coef, axis=0)  # the potential is w times their polynomial
    if init_flows is None:
        # all-or-nothing flows on the route cheapest at free flow
        q = (np.eye(n_routes) * demand)[np.argmin(np.matvec(inc.T, coef[0]), axis=1)]
    else:
        q = _start_flows(init_flows, n, n_routes, demand)

    loads = np.matvec(inc, q)
    edge_costs = polyval_ascending(coef, loads, axis=0)
    route_costs = np.matvec(inc.T, edge_costs)
    potential = _potential(pcoef, loads)
    # potentials and route costs are nonnegative: no abs() needed below
    t_min = row_min(route_costs)
    lb = potential - (np.vecdot(route_costs, q) - t_min * demand)
    rel_gap = (potential - lb) / np.maximum(potential, _TINY)
    # the largest route flow is at least demand / n_routes > 1e-9 * demand
    used = q > 1e-9 * demand
    worst = row_max(np.where(used, route_costs, -np.inf)) - t_min
    settled = (rel_gap <= tol) | (worst <= tol * np.maximum(1.0, t_min))
    try:
        ok, n_iter = _face_polish(
            inc, coef, pcoef, demand, q, loads, edge_costs, route_costs, settled
        )
    except np.linalg.LinAlgError as exc:  # independent routes, yet singular in floating point
        raise SolverError(f"Newton step: {exc}") from None
    np.copyto(potential, _potential(pcoef, loads), where=ok)

    # final certificates at the returned point
    abs_gap = np.vecdot(route_costs, q) - row_min(route_costs) * demand
    lb = np.maximum(lb, potential - abs_gap)
    gap = np.maximum(0.0, (potential - lb) / np.maximum(np.abs(potential), _TINY))
    converged = ok | settled  # a row left at its start keeps the start's gap
    for a in (q, loads, gap, route_costs, n_iter, potential, converged):
        a.setflags(write=False)
    return EquilibriumBlock(
        route_flows=q,
        edge_loads=loads,
        gap=gap,
        route_costs=route_costs,
        n_iterations=n_iter,
        potential=potential,
        converged=converged,
    )


def solve_wardrop(
    network: Network,
    model: CostModel,
    theta: Belief,
    demand: float,
    *,
    tol: float = DEFAULT_TOL,
) -> EquilibriumResult:
    """Equilibrium route flows and edge loads for one belief.

    The block solver on a block of one row; raises SolverError, carrying the
    row's start flows and their certificates, when the row does not converge.
    """
    block = solve_wardrop_batch(network, model, theta.probs[None, :], demand, tol=tol)
    block.raise_unconverged()
    return block.row(0)

