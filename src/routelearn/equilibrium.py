"""Wardrop equilibrium computation via route-based Frank-Wolfe.

The potential minimized is the sum over edges of the integral of the
belief-weighted cost, so its minimizers are exactly the equilibria and the
duality gap provides a no-better-route certificate. Every row also tries a
Newton polish on its active route set (Bertsekas & Gafni 1982), which
solves the equal-cost system with costs linearized at the current loads
(exactly, in one step, for affine mixtures). It pins interior solutions to
machine precision and leaves unused routes at exactly zero flow, which
Frank-Wolfe alone reaches only at O(1/k).

A row's certificates come from the evaluation that certified it: the
polish's loads and route costs at the flows it returns, or the Frank-Wolfe
iteration at which the row stopped. Only rows whose returned flows were
never evaluated, those stopped by the iteration cap, are evaluated again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import (
    Belief,
    CostModel,
    polyint_coefficients,
    polyval_ascending,
)
from .errors import CostError, SolverError
from .graph import Network, row_groups

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000
_TINY = np.finfo(float).tiny
_NEWTON_STEPS = 8  # per polish; Frank-Wolfe goes on for rows it leaves uncertified


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
    `converged` and hold the best iterate found.
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
            f"no convergence within {self.n_iterations[i]} iterations "
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


def _line_search(
    coef: np.ndarray, w: np.ndarray, d: np.ndarray, costs: np.ndarray, poly: np.ndarray
) -> np.ndarray:
    """Exact step toward the all-or-nothing target, one per row.

    Minimizes the potential along w + g*d for g in [0, 1]. The directional
    derivative sum_e cost_e(w + g d) d_e is nondecreasing in g, so affine
    rows have a closed form and the rows listed in `poly` bisect on its
    sign. `coef` holds the mixed cost coefficients degree-major, (C, n, E).
    """
    num = -np.vecdot(costs, d)
    den = np.vecdot(coef[1], d * d)
    # a direction that changes no loaded edge makes any step equivalent
    ratio = np.divide(num, den, out=np.ones(len(num)), where=den > 0.0)
    gamma = np.minimum(1.0, np.maximum(0.0, ratio))
    if not poly.size:
        return gamma
    c, w, d = coef[:, poly], w[poly], d[poly]
    need = np.vecdot(polyval_ascending(c, w + d, axis=0), d) > 0.0
    gamma[poly] = 1.0
    rows, c, w, d = poly[need], c[:, need], w[need], d[need]
    lo, hi = np.zeros((len(rows), 1)), np.ones((len(rows), 1))
    for _ in range(60 if rows.size else 0):
        mid = 0.5 * (lo + hi)
        pos = np.vecdot(polyval_ascending(c, w + mid * d, axis=0), d)[:, None] > 0.0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    gamma[rows] = 0.5 * (lo + hi)[:, 0]
    return gamma


def _potential(pcoef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Beckmann potential of each row of loads `w`, from the degree-major
    coefficients of `polyint_coefficients`."""
    return np.add.reduce(polyval_ascending(pcoef, w, axis=0) * w, axis=1)


def _face_polish(
    inc: np.ndarray,
    coef: np.ndarray,
    demand: float,
    q: np.ndarray,
    rmin: np.ndarray,
    loads: np.ndarray,
    costs: np.ndarray,
) -> np.ndarray:
    """Newton on the equal-cost system of each row's active route set.

    The active set is the row's positive routes plus its cheapest one. A
    Newton step solves the equal-cost linear system on that set with each
    edge cost linearized at the current loads, intercept c(w) - c'(w) w and
    slope c'(w), dropping negative flows active-set style; rows with the
    same active set share one stacked solve. Affine rows take their own
    coefficients, so one step solves their system exactly and is all they
    take; such a row is certified when its new flows pass the equal-cost
    and no-cheaper-route test on the true costs. Other linearizations are
    exact only to second order, so those rows are certified when a step
    from flows that already pass passes again, which leaves them at
    rounding level. Certified rows leave; the others step again from their
    new flows, with the cheapest route at them added to the set, at most
    `_NEWTON_STEPS` times. Returns the mask of certified rows; each one's
    flows are written into its row of `q`, and the edge loads and route
    costs at them, from the evaluation that certified them, into `loads`
    and `costs`. Other rows of the three arrays are left as they were.
    """
    n, n_routes = q.shape
    affine = ~coef[2:].any(axis=(0, 2))
    flows = q.copy()  # each uncertified row's current flows
    active = flows > 1e-12 * demand
    active[np.arange(n), rmin] = True
    # affine rows keep their own coefficients, their exact linearization
    icpt, slope = coef[0], coef[1]
    live, lin = np.arange(n), (~affine).nonzero()[0]
    if lin.size:
        icpt, slope = icpt.copy(), slope.copy()
        dcoef = coef[1:] * np.arange(1, len(coef))[:, None, None]  # c', degree-major
    ok = np.zeros(n, dtype=bool)
    passed = np.zeros(n, dtype=bool)  # the current flows pass the cost test
    for _ in range(_NEWTON_STEPS):
        if lin.size:
            w = np.matvec(inc, flows[lin])
            slope[lin] = polyval_ascending(dcoef[:, lin], w, axis=0)
            icpt[lin] = polyval_ascending(coef[:, lin], w, axis=0) - slope[lin] * w
        again = []
        pending = live
        while pending.size:
            retry = []
            for pattern, sub in row_groups(active[pending]):
                rows = pending[sub]
                routes = pattern.nonzero()[0]
                k = len(routes)
                if k == 1:
                    sol = np.full((len(rows), 1), demand)
                else:
                    # each active route's cost minus the last one's, then the demand
                    route_slope = inc.T @ (slope[rows][:, :, None] * inc)
                    s = route_slope[:, routes[:, None], routes]
                    m = s - s[:, -1:]
                    m[:, -1] = 1.0
                    f = np.matvec(inc.T, icpt[rows])[:, routes]
                    rhs = f[:, -1:] - f
                    rhs[:, -1] = demand
                    try:
                        sol = np.linalg.solve(m, rhs[:, :, None])[:, :, 0]
                    except np.linalg.LinAlgError:
                        sol = _solve_each(m, rhs)
                        solved = ~np.isnan(sol).all(axis=1)
                        rows, sol = rows[solved], sol[solved]
                    drop = ~(np.minimum.reduce(sol, axis=1) >= -1e-12 * demand)
                    if drop.any():
                        active[rows[drop], routes[np.argmin(sol[drop], axis=1)]] = False
                        retry.append(rows[drop])
                        rows, sol = rows[~drop], sol[~drop]

                cand = np.zeros((len(rows), n_routes))
                cand[:, routes] = np.maximum(sol, 0.0)
                top = routes[np.argmax(sol, axis=1)]
                cand[np.arange(len(rows)), top] += demand - np.add.reduce(cand, axis=1)
                wc = np.matvec(inc, cand)
                t = np.matvec(inc.T, polyval_ascending(coef[:, rows], wc, axis=0))
                on = t[:, routes]
                common = np.add.reduce(on, axis=1) / k
                scale = 1e-9 * (1.0 + np.abs(common))
                bad = np.minimum.reduce(t, axis=1) < common - scale
                if k > 1:
                    bad |= np.maximum.reduce(np.abs(on - common[:, None]), axis=1) > scale
                # a step from flows that pass is exact to rounding
                good = ~bad & (affine[rows] | passed[rows])
                passed[rows] = ~bad
                fin = rows[good]
                q[fin], loads[fin], costs[fin] = cand[good], wc[good], t[good]
                ok[fin] = True
                step = ~good & ~affine[rows]
                if step.any():
                    rows, cand = rows[step], cand[step]
                    flows[rows] = cand
                    active[rows] = cand > 1e-12 * demand
                    active[rows, np.argmin(t[step], axis=1)] = True
                    again.append(rows)
            pending = np.concatenate(retry) if retry else pending[:0]
        if not again:
            break
        live = lin = np.concatenate(again)
    return ok


def _solve_each(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the systems one by one; rows of singular systems come back NaN."""
    out = np.full(rhs.shape, np.nan)
    for i in range(len(m)):
        try:
            out[i] = np.linalg.solve(m[i], rhs[i])
        except np.linalg.LinAlgError:
            pass
    return out


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


def solve_wardrop_block(
    network: Network,
    model: CostModel,
    probs,
    demand: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init_flows=None,
) -> EquilibriumBlock:
    """Equilibria for a block of beliefs, one per row of `probs`.

    Each row starts from its row of `init_flows`, an (n, R) array of route
    flows that sum to `demand`, or by default from all-or-nothing flows on
    the route cheapest at free flow. A start near the equilibrium, such as
    that of a nearby belief, saves the polish most of its Newton steps.
    Each row iterates all-or-nothing assignment to its cheapest route with
    exact line search, and stops once its relative duality gap or its
    no-better-route certificate falls below `tol`. A row that stops leaves
    the iteration, so every row gets the result it would get alone. Ties in
    the cheapest route go to the lowest index so runs are deterministic.
    Every row tries the Newton face polish at iterations 1, 2, 4, 8, ...
    and stops with its flows once it certifies them; a row that stops
    elsewhere gets a final polish. Rows that do not converge are reported in
    `converged`, not raised.
    """
    if demand <= 0:
        raise ValueError("demand must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != model.n_states:
        raise ValueError(f"belief matrix has shape {probs.shape}")
    _check_model(network, model)

    inc = network.incidence
    n, n_routes = len(probs), network.n_routes
    # mixed cost coefficients, degree-major: coef[k] is the (n, E) degree-k slice
    coef = model.mixed_coefficients_batch(probs).transpose(2, 0, 1).copy()
    pcoef = polyint_coefficients(coef, axis=0)  # the potential is w times their polynomial
    affine = ~coef[2:].any(axis=(0, 2))
    flow_tol = 1e-9 * demand

    targets = np.eye(n_routes) * demand  # all-or-nothing flows, one row per route
    if init_flows is None:
        q = targets[np.argmin(np.matvec(inc.T, coef[0]), axis=1)]  # cheapest at free flow
    else:
        q = _start_flows(init_flows, n, n_routes, demand)

    n_iter = np.full(n, max_iter, dtype=np.intp)
    converged = np.zeros(n, dtype=bool)
    polished = np.zeros(n, dtype=bool)  # polished at the iterate the row stops at
    stale = np.zeros(n, dtype=bool)  # returned flows never evaluated

    # The loop works on the rows still iterating; a row that stops leaves.
    live = np.arange(n)
    ql, cl, pl, poly = q, coef, pcoef, (~affine).nonzero()[0]
    lb = np.full(n, -np.inf)
    ceiling = np.full(n, np.inf)  # largest potential the next iterate may have
    for it in range(1, max_iter + 1):
        w = np.matvec(inc, ql)
        costs = polyval_ascending(cl, w, axis=0)
        t = np.matvec(inc.T, costs)
        phi = _potential(pl, w)
        if (phi > ceiling).any():
            i = int(np.argmax(phi > ceiling))
            raise SolverError(
                f"potential increased at iteration {it} (to {phi[i]!r})"
            ).at_row(live[i])
        # potentials and route costs are nonnegative: no abs() needed below
        ceiling = phi * (1.0 + 1e-9) + 1e-9

        rm = t.argmin(axis=1)
        t_min = np.minimum.reduce(t, axis=1)
        lb = np.maximum(lb, phi - (np.vecdot(t, ql) - t_min * demand))
        if it == 1:
            # every row is live: the result keeps these arrays, and a row
            # that stops later copies in the iterate it stopped at
            loads, route_costs, potential, best_lb, rmin = w, t, phi, lb, rm
        polish = not it & (it - 1)
        if polish:
            # A route that carries no flow at equilibrium drains only at
            # O(1/k), so rows try the polish at every power of two and stop
            # with the flows it certifies, evaluated there. Rows that stop
            # now anyway have had their final polish.
            ok = _face_polish(inc, cl, demand, ql, rm, w, t)
            np.copyto(phi, _potential(pl, w), where=ok)
        rel_gap = (phi - lb) / np.maximum(phi, _TINY)
        # the largest route flow is at least demand / n_routes > flow_tol
        worst = np.maximum.reduce(t, axis=1, where=ql > flow_tol, initial=-np.inf) - t_min
        done = (rel_gap <= tol) | (worst <= tol * np.maximum(1.0, t_min))
        if polish:
            done |= ok
            polished[live[done]] = True
        if done.any():
            fin = live[done]
            if it > 1:  # at iteration 1 the live arrays are the result's
                q[fin], rmin[fin], best_lb[fin] = ql[done], rm[done], lb[done]
                loads[fin], route_costs[fin], potential[fin] = w[done], t[done], phi[done]
            n_iter[fin], converged[fin] = it, True
            go = ~done
            live = live[go]
            if not live.size:
                break
            ql, lb, ceiling, w, costs, rm = (a[go] for a in (ql, lb, ceiling, w, costs, rm))
            cl, pl = cl[:, go], pl[:, go]
            poly = (~affine[live]).nonzero()[0]
        y = targets[rm]
        step = y - ql
        gamma = _line_search(cl, w, np.matvec(inc, step), costs, poly)
        g = gamma[:, None]
        ql = np.where(g >= 1.0, y, ql + g * step)
    else:
        q[live], rmin[live], best_lb[live] = ql, rm, lb
        stale[live] = True

    final = ~polished
    if final.any():
        rows = final.nonzero()[0]
        qr, wr, tr = q[rows], loads[rows], route_costs[rows]
        ok = _face_polish(inc, coef[:, rows], demand, qr, rmin[rows], wr, tr)
        fin = rows[ok]
        q[fin], loads[fin], route_costs[fin] = qr[ok], wr[ok], tr[ok]
        potential[fin] = _potential(pcoef[:, fin], wr[ok])
        converged[fin] = True
        stale[fin] = False
    if stale.any():
        rows = stale.nonzero()[0]
        w = np.matvec(inc, q[rows])
        loads[rows] = w
        route_costs[rows] = np.matvec(inc.T, polyval_ascending(coef[:, rows], w, axis=0))
        potential[rows] = _potential(pcoef[:, rows], w)

    # final certificates at the returned point
    abs_gap = np.vecdot(route_costs, q) - np.minimum.reduce(route_costs, axis=1) * demand
    best_lb = np.maximum(best_lb, potential - abs_gap)
    gap = np.maximum(0.0, (potential - best_lb) / np.maximum(np.abs(potential), _TINY))
    converged |= gap <= tol
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
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumResult:
    """Equilibrium route flows and edge loads for one belief.

    The block solver on a block of one row; raises SolverError, carrying the
    best iterate, when the row does not converge within `max_iter`.
    """
    block = solve_wardrop_block(
        network,
        model,
        theta.probs[None, :],
        demand,
        tol=tol,
        max_iter=max_iter,
    )
    block.raise_unconverged()
    return block.row(0)


def complete_info_equilibrium(
    network: Network,
    model: CostModel,
    state: str,
    demand: float,
    **kwargs,
) -> EquilibriumResult:
    """Equilibrium when the state is known, i.e. under a point-mass belief."""
    theta = Belief.point_mass(model.n_states, model.state_index(state))
    return solve_wardrop(network, model, theta, demand, **kwargs)


def solve_wardrop_batch(
    network: Network, model: CostModel, thetas: np.ndarray, demand: float, *,
    tol: float = 1e-10,
) -> EquilibriumBlock:
    """Equilibria of many beliefs, for dense simplex sweeps.

    The block solver at the sweep's tolerance; a row that does not converge
    is flagged in `converged`, not raised.
    """
    return solve_wardrop_block(network, model, thetas, demand, tol=tol)
