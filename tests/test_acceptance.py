"""Acceptance suite: each test prints one pass/fail line for its criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from routelearn import (
    Belief,
    check_complete_learning_conditions,
    check_rest_point,
    enumerate_rest_points,
    is_series_parallel,
    monte_carlo,
)
from routelearn.analysis import average_cost
from routelearn.belief import bayes_update
from routelearn.equilibrium import solve_wardrop
from routelearn.graph import series_parallel_reducible, used_edges

from oracles import (
    known_state,
    random_spd,
    random_two_route_instance,
    replay_posterior,
    sp_oracle,
    two_route_affine_loads,
    two_terminal_multigraphs,
)


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:>2} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def rest_point_report(three_edge):
    start = time.perf_counter()
    rep = enumerate_rest_points(three_edge, 200)
    return rep, time.perf_counter() - start


def test_criterion_1_complete_information_equilibrium(three_edge):
    start = time.perf_counter()
    truth = known_state(three_edge.model, "none")
    eq = solve_wardrop(three_edge.network, three_edge.model, truth, 1.0)
    elapsed = time.perf_counter() - start
    load_ok = np.max(np.abs(eq.edge_loads - np.array([1.0, 0.5, 0.5]))) <= 1e-6
    cost_ok = np.max(np.abs(eq.route_costs - 11.5)) <= 1e-6
    report(
        1,
        "complete-information equilibrium (1, 0.5, 0.5) with route costs 11.5",
        load_ok and cost_ok and elapsed < 1.0,
        f"loads {np.round(eq.edge_loads, 9)}, costs {np.round(eq.route_costs, 9)}, {elapsed:.3f}s",
    )


def test_criterion_2_average_costs(three_edge):
    c_complete = average_cost(three_edge, [1.0, 0.5, 0.5])
    c_rest = average_cost(three_edge, [1.0, 0.0, 1.0])
    ok = abs(c_complete - 11.5) <= 1e-9 and abs(c_rest - 12.0) <= 1e-9
    report(
        2,
        "average costs 11.5 at the informed split and 12 at the exclusive route",
        ok,
        f"got {c_complete!r} and {c_rest!r}",
    )


def test_criterion_3_rest_point_enumeration(three_edge, rest_point_report):
    rep, elapsed = rest_point_report
    ok = len(rep.families) == 2
    detail = [f"{len(rep.families)} families in {elapsed:.1f}s"]
    if ok:
        complete = next((f for f in rep.families if len(f.used) == 3), None)
        partial = next((f for f in rep.families if f.used == ("e1", "e3")), None)
        ok = complete is not None and partial is not None
        if ok:
            ok &= complete.support == ("none",)
            ok &= bool(np.max(np.abs(complete.loads - [1.0, 0.5, 0.5])) <= 1e-6)
            ok &= partial.support == ("e2", "none")
            ok &= bool(np.max(np.abs(partial.loads - [1.0, 0.0, 1.0])) <= 1e-6)
            x_star = partial.thresholds["e2"][0]
            ok &= abs(x_star - 0.2) <= 1e-4
            ok &= partial.thresholds["e2"][1] == pytest.approx(1.0)
            detail.append(f"x* = {x_star!r}")
    ok = ok and elapsed < 60.0
    report(3, "two rest-point families with threshold 0.2 at grid 200", ok, ", ".join(detail))


def test_criterion_4_convergence_closure(three_edge):
    start = time.perf_counter()
    batch = monte_carlo(three_edge, range(100))
    all_converged = batch.n_converged == 100
    allowed = {("e1", "e2", "e3"), ("e1", "e3")}
    used_ok = all(s.terminal_used in allowed for s in batch.summaries)
    checks_ok = True
    worst_gap = 0.0
    worst_mass = 0.0
    for s in batch.summaries:
        chk = check_rest_point(
            three_edge, Belief(s.terminal_belief), s.terminal_loads, load_tol=1e-4, mass_tol=1e-3
        )
        checks_ok &= chk.ok
        worst_gap = max(worst_gap, chk.equilibrium_gap)
        worst_mass = max(worst_mass, chk.residual_mass)
    elapsed = time.perf_counter() - start
    report(
        4,
        "100 seeds converge to certified rest points on the allowed edge sets",
        all_converged and used_ok and checks_ok and elapsed < 120.0,
        f"converged {batch.n_converged}/100, worst gap {worst_gap:.2e}, "
        f"worst residual mass {worst_mass:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_complete_learning_under_condition_2(cond2):
    conditions = check_complete_learning_conditions(cond2)
    batch = monte_carlo(cond2, range(100))
    target = np.array([1.0, 0.5, 0.5])
    worst = max(
        float(np.max(np.abs(s.terminal_loads - target))) for s in batch.summaries
    )
    ok = (
        conditions.state_independent_free_flow
        and batch.n_converged == 100
        and worst <= 1e-2
    )
    report(
        5,
        "state-independent free-flow variant learns completely on all 100 seeds",
        ok,
        f"condition2={conditions.state_independent_free_flow}, worst load deviation {worst:.2e}",
    )


def test_criterion_6_incomplete_learning_exists(three_edge, accurate_prior):
    hits = {}
    for name, scenario in (("uniform prior", three_edge), ("accurate prior", accurate_prior)):
        batch = monte_carlo(scenario, range(500))
        partial = [
            s for s in batch.summaries if s.terminal_used == ("e1", "e3")
        ]
        load_ok = all(
            np.max(np.abs(s.terminal_loads - np.array([1.0, 0.0, 1.0]))) <= 1e-6
            for s in partial
        )
        hits[name] = (len(partial), load_ok)
    ok = all(count >= 1 and load_ok for count, load_ok in hits.values())
    report(
        6,
        "incomplete learning occurs under both priors within 500 seeds",
        ok,
        ", ".join(f"{k}: {v[0]} trajectories at (1, 0, 1)" for k, v in hits.items()),
    )


def test_criterion_7_martingale_property(three_edge):
    start = time.perf_counter()
    theta = Belief.uniform(4)
    eq = solve_wardrop(three_edge.network, three_edge.model, theta, 1.0)
    used = used_edges(three_edge.network, eq.edge_loads, three_edge.used_edge_tol)
    idx = np.flatnonzero(used).tolist()
    means = three_edge.model.cost_matrix(eq.edge_loads, idx)
    chol = np.linalg.cholesky(three_edge.model.sigma[np.ix_(idx, idx)])
    n = 100_000
    rng = np.random.default_rng(20240617)
    states = rng.choice(4, size=n, p=theta.probs)
    draws = means[states] + rng.standard_normal((n, len(idx))) @ chol.T
    post = bayes_update(
        np.tile(theta.probs, (n, 1)),
        three_edge.model,
        tuple(idx),
        np.tile(eq.edge_loads, (n, 1)),
        draws,
    )
    deviation = float(np.max(np.abs(post.sum(axis=0) / n - theta.probs)))
    elapsed = time.perf_counter() - start
    bound = 5.0 / np.sqrt(n)
    report(
        7,
        "mean posterior over prior-predictive resamples returns the prior",
        deviation <= bound and elapsed < 30.0,
        f"deviation {deviation:.4f} <= {bound:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8a_replay_matches_fold():
    from test_belief import fold_updates, make_model, random_history  # the same histories

    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        n_states = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        intercepts = [tuple(rng.uniform(0, 10, size=m)) for _ in range(n_states)]
        model = make_model(intercepts, sigma=random_spd(rng, m))
        p = rng.dirichlet(np.ones(n_states))
        theta0 = Belief(p / p.sum())
        history = random_history(rng, model, 50)
        batch = replay_posterior(theta0, model, *history)
        theta = fold_updates(theta0, model, *history)
        worst = max(worst, float(np.max(np.abs(batch.probs - theta.probs))))
    report(
        8,
        "(a) batch replay equals the incremental fold on 100 histories",
        worst <= 1e-10,
        f"worst gap {worst:.2e}",
    )


def test_criterion_8b_two_route_closed_form():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        net, model, theta, demand = random_two_route_instance(rng)
        eq = solve_wardrop(net, model, theta, demand, tol=1e-8)
        oracle = two_route_affine_loads(net, model, theta, demand)
        worst = max(worst, float(np.max(np.abs(eq.edge_loads - oracle))) / max(1.0, demand))
    report(
        8,
        "(b) solver matches the two-route closed form on 50 instances",
        worst <= 1e-8,
        f"worst relative gap {worst:.2e}",
    )


def test_criterion_8c_series_parallel_oracle_agreement():
    checked = 0
    disagreements = 0
    for edges in two_terminal_multigraphs(5):
        got = series_parallel_reducible(edges, 0, 1)
        want = sp_oracle(edges, 0, 1)
        checked += 1
        if got != want:
            disagreements += 1
    report(
        8,
        "(c) greedy reduction agrees with exhaustive search on all small multigraphs",
        checked > 0 and disagreements == 0,
        f"{checked} multigraphs, {disagreements} disagreements",
    )


def test_criterion_9_average_cost_dominance(three_edge, rest_point_report):
    rep, _ = rest_point_report
    sp = is_series_parallel(three_edge.network)
    truth = known_state(three_edge.model, "none")
    base = average_cost(
        three_edge, solve_wardrop(three_edge.network, three_edge.model, truth, 1.0).edge_loads
    )
    ok = sp and all(average_cost(three_edge, fam.loads) >= base - 1e-9 for fam in rep.families)
    costs = sorted(round(average_cost(three_edge, f.loads), 6) for f in rep.families)
    report(
        9,
        "every enumerated rest point costs at least the informed equilibrium",
        ok,
        f"complete-info {base}, rest points {costs}",
    )
