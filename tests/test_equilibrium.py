from __future__ import annotations

import numpy as np
import pytest

import routelearn.equilibrium as equilibrium
from routelearn import (
    Belief,
    CostFunction,
    CostModel,
    Network,
    SolverError,
    scenario_from_dict,
)
from routelearn.equilibrium import (
    complete_info_equilibrium,
    solve_wardrop,
    solve_wardrop_batch,
    solve_wardrop_block,
)

from oracles import (
    bench_reference,
    certify_nothing,
    exact_solve_wardrop,
    random_multi_route_instance,
    random_simplex,
    random_two_route_instance,
    reference_block_evaluation,
    reference_solve_wardrop,
    two_route_affine_loads,
    verify_equilibrium,
    wheatstone_drain_table,
    wheatstone_network,
    wheatstone_poly_payload,
)


def _oracle(model, theta):
    """The scalar reference loop for affine mixed costs, else the exact equal-cost solve.

    The reference loop stops polynomial rows at a relative gap of `tol`,
    which leaves their loads further than 1e-12 from the equilibrium.
    """
    affine = not model.mixed_coefficients_batch(np.asarray(theta)[None, :])[:, :, 2:].any()
    return reference_solve_wardrop if affine else exact_solve_wardrop


def _solve_from_route(net, model, theta, demand, route, **kwargs):
    """One-row solve that starts with all demand on `route`."""
    start = np.zeros((1, net.n_routes))
    start[0, route] = demand
    block = solve_wardrop_block(
        net, model, theta.probs[None, :], demand, init_flows=start, **kwargs
    )
    block.raise_unconverged()
    return block.row(0)


def _assert_matches_reference(net, model, theta, demand, loads):
    """Batch loads within 1e-12 of the oracle for the row's cost form."""
    ref = _oracle(model, theta)(net, model, Belief(theta), demand, tol=1e-12)
    assert np.max(np.abs(loads - ref.edge_loads)) <= 1e-12 * max(1.0, demand)


class TestThreeEdgeScenario:
    def test_point_mass_on_truth(self, three_edge):
        theta = Belief([0.0, 0.0, 0.0, 1.0])
        eq = solve_wardrop(three_edge.network, three_edge.model, theta, 1.0)
        assert np.allclose(eq.edge_loads, [1.0, 0.5, 0.5], atol=1e-12)
        assert np.allclose(eq.route_costs, [11.5, 11.5], atol=1e-12)

    def test_rest_point_belief(self, three_edge):
        theta = Belief([0.0, 0.5, 0.0, 0.5])
        eq = solve_wardrop(three_edge.network, three_edge.model, theta, 1.0)
        assert np.allclose(eq.edge_loads, [1.0, 0.0, 1.0], atol=1e-12)

    def test_interior_below_threshold(self, three_edge):
        # x = 0.1 < 0.2 keeps the e2 route active at flow (1 - 5x)/2
        theta = Belief([0.0, 0.1, 0.0, 0.9])
        eq = solve_wardrop(three_edge.network, three_edge.model, theta, 1.0)
        assert np.allclose(eq.edge_loads, [1.0, 0.25, 0.75], atol=1e-12)

    def test_threshold_is_sharp(self, three_edge):
        eq = solve_wardrop(three_edge.network, three_edge.model, Belief([0, 0.2, 0, 0.8]), 1.0)
        assert eq.edge_loads[1] == 0.0
        eq = solve_wardrop(
            three_edge.network, three_edge.model, Belief([0, 0.199, 0, 0.801]), 1.0
        )
        assert eq.edge_loads[1] > 0.0


class TestCompleteInformation:
    def test_true_state(self, three_edge):
        eq = complete_info_equilibrium(three_edge.network, three_edge.model, "none", 1.0)
        assert np.allclose(eq.edge_loads, [1.0, 0.5, 0.5], atol=1e-12)

    def test_e2_compromised_pushes_flow_off(self, three_edge):
        # entry cost 10 on e2 exceeds the full-load e3 route; corner solution
        eq = complete_info_equilibrium(three_edge.network, three_edge.model, "e2", 1.0)
        assert np.allclose(eq.edge_loads, [1.0, 0.0, 1.0], atol=1e-12)

    def test_e3_compromised_interior(self, three_edge):
        # slope-3 compromise on e3: q2 + 11 = 3*(1 - q2) + 11 gives q2 = 0.75
        eq = complete_info_equilibrium(three_edge.network, three_edge.model, "e3", 1.0)
        assert np.allclose(eq.edge_loads, [1.0, 0.75, 0.25], atol=1e-12)
        assert np.allclose(eq.route_costs, [11.75, 11.75], atol=1e-12)

    def test_e1_compromised_symmetric_split(self, three_edge):
        eq = complete_info_equilibrium(three_edge.network, three_edge.model, "e1", 1.0)
        assert np.allclose(eq.edge_loads, [1.0, 0.5, 0.5], atol=1e-12)


class TestSymmetryAndCorners:
    def test_two_identical_parallel_edges(self):
        net = Network(["p", "q"], [["p"], ["q"]])
        fns = {(e, "s"): CostFunction.affine(1.0, 1.0) for e in ("p", "q")}
        model = CostModel(["p", "q"], ["s"], fns, np.eye(2))
        for demand in (0.5, 1.0, 3.0):
            eq = solve_wardrop(net, model, Belief.point_mass(1, 0), demand)
            assert np.allclose(eq.edge_loads, [demand / 2, demand / 2], atol=1e-12)

    def test_vanishing_demand_all_or_nothing(self):
        # as demand shrinks, only the route with the least free-flow cost is used
        net = Network(["a", "b"], [["a"], ["b"]])
        fns = {
            ("a", "s"): CostFunction.affine(1.0, 2.0),
            ("b", "s"): CostFunction.affine(1.0, 3.0),
        }
        model = CostModel(["a", "b"], ["s"], fns, np.eye(2))
        eq = solve_wardrop(net, model, Belief.point_mass(1, 0), 1e-12)
        assert eq.route_flows[0] == pytest.approx(1e-12, rel=1e-9)
        assert eq.route_flows[1] == 0.0

    def test_equal_intercepts_any_split_passes_at_tiny_demand(self):
        net = Network(["a", "b"], [["a"], ["b"]])
        fns = {
            ("a", "s"): CostFunction.affine(1.0, 2.0),
            ("b", "s"): CostFunction.affine(2.0, 2.0),
        }
        model = CostModel(["a", "b"], ["s"], fns, np.eye(2))
        rng = np.random.default_rng(2)
        demand = 1e-9
        for _ in range(5):
            split = rng.uniform(0.0, 1.0)
            q = np.array([split, 1.0 - split]) * demand
            cert = verify_equilibrium(net, model, Belief.point_mass(1, 0), q, tol=1e-8)
            assert cert.ok


class TestVerifyEquilibrium:
    def test_solver_output_passes(self, three_edge):
        theta = Belief.uniform(4)
        eq = solve_wardrop(three_edge.network, three_edge.model, theta, 1.0)
        cert = verify_equilibrium(three_edge.network, three_edge.model, theta, eq, tol=1e-6)
        assert cert.ok
        assert cert.worst_violation <= 1e-10

    def test_hand_built_imbalance_fails(self, three_edge):
        # all demand on the e2 route under the truth: costs 12 vs 11 on the unused route
        theta = Belief([0.0, 0.0, 0.0, 1.0])
        cert = verify_equilibrium(
            three_edge.network, three_edge.model, theta, np.array([1.0, 0.0]), tol=1e-6
        )
        assert not cert.ok
        assert cert.route_costs == pytest.approx([12.0, 11.0])
        assert cert.worst_violation == pytest.approx(1.0)

    def test_never_raises_on_bad_input(self, three_edge):
        cert = verify_equilibrium(
            three_edge.network,
            three_edge.model,
            Belief.uniform(4),
            np.array([0.9, 0.1]),
            tol=1e-12,
        )
        assert isinstance(cert.ok, bool)


class TestSolverProperties:
    def test_essential_uniqueness_across_starts(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            net, model, theta, demand = random_multi_route_instance(rng)
            loads = []
            for start in range(net.n_routes):
                eq = _solve_from_route(net, model, theta, demand, start, tol=1e-8)
                loads.append(eq.edge_loads)
            spread = max(
                float(np.max(np.abs(a - b))) for a in loads for b in loads
            )
            assert spread < 10 * 1e-8 * max(1.0, demand)

    def test_polish_trial_ends_a_draining_solve(self):
        # from route 1, a route that is empty at equilibrium drains at O(1/k)
        # and the gap never reaches 1e-8, so the reference loop, which
        # polishes only at the end, runs to its cap; the polish tried at
        # iterations 1, 2, 4, ... certifies the equilibrium at iteration 2
        rng = np.random.default_rng(21)
        for _ in range(9):
            net, model, theta, demand = random_multi_route_instance(rng)
        capped = reference_solve_wardrop(net, model, theta, demand, init_route=1, max_iter=2000)
        assert capped.n_iterations == 2000
        eq = _solve_from_route(net, model, theta, demand, 1, tol=1e-8)
        assert eq.n_iterations == 2
        assert verify_equilibrium(net, model, theta, eq, tol=1e-12).ok
        direct = solve_wardrop(net, model, theta, demand, tol=1e-8)
        assert direct.n_iterations == 1
        assert np.max(np.abs(eq.edge_loads - direct.edge_loads)) <= 1e-12 * max(1.0, demand)

    def test_two_route_matches_closed_form(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            net, model, theta, demand = random_two_route_instance(rng)
            eq = solve_wardrop(net, model, theta, demand, tol=1e-8)
            oracle = two_route_affine_loads(net, model, theta, demand)
            assert np.max(np.abs(eq.edge_loads - oracle)) <= 1e-8 * max(1.0, demand)

    def test_polynomial_costs_match_scalar_minimization(self):
        # brute-force the 1-d potential on a fine grid as an independent check
        net = Network(["a", "b"], [["a"], ["b"]])
        fns = {
            ("a", "s"): CostFunction.polynomial([1.0, 0.5, 0.3]),
            ("b", "s"): CostFunction.polynomial([2.0, 1.0, 0.0, 0.1]),
        }
        model = CostModel(["a", "b"], ["s"], fns, np.eye(2))
        theta = Belief.point_mass(1, 0)
        demand = 2.0
        eq = solve_wardrop(net, model, theta, demand, tol=1e-12)
        q1 = np.linspace(0.0, demand, 200001)
        from routelearn.costs import polyint_ascending

        ca = np.array(fns[("a", "s")].coefficients)
        cb = np.array(fns[("b", "s")].coefficients)
        phis = polyint_ascending(ca, q1) + polyint_ascending(cb, demand - q1)
        best = q1[int(np.argmin(phis))]
        assert eq.route_flows[0] == pytest.approx(best, abs=2e-5)

    def test_continuity_in_belief(self):
        rng = np.random.default_rng(44)
        deltas = [1e-2, 1e-3, 1e-4]
        gaps = {d: [] for d in deltas}
        for _ in range(10):
            net, model, theta, demand = random_multi_route_instance(rng)
            if model.n_states < 2:
                continue
            base = solve_wardrop(net, model, theta, demand).edge_loads
            for d in deltas:
                shift = random_simplex(rng, model.n_states) - theta.probs
                norm = np.abs(shift).sum()
                if norm == 0:
                    continue
                probs = theta.probs + shift * (d / norm)
                probs = np.maximum(probs, 0.0)
                probs /= probs.sum()
                moved = solve_wardrop(net, model, Belief(probs), demand).edge_loads
                gaps[d].append(float(np.max(np.abs(moved - base))))
        means = [np.mean(gaps[d]) for d in deltas]
        assert means[0] >= means[1] >= means[2]
        assert means[2] < 1e-2

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(55)
        for max_degree in (1, 2):
            for _ in range(8):
                net, model, _, demand = random_multi_route_instance(rng, max_degree=max_degree)
                thetas = np.array(
                    [random_simplex(rng, model.n_states) for _ in range(25)]
                )
                eq = solve_wardrop_batch(net, model, thetas, demand)
                batch_loads, gaps = eq.edge_loads, eq.gap
                assert (gaps <= 1e-9).all()
                for i in range(len(thetas)):
                    _assert_matches_reference(net, model, thetas[i], demand, batch_loads[i])

    def test_deterministic_tie_break(self, three_edge):
        # two runs produce bit-identical representatives
        theta = Belief.uniform(4)
        eq1 = solve_wardrop(three_edge.network, three_edge.model, theta, 1.0)
        eq2 = solve_wardrop(three_edge.network, three_edge.model, theta, 1.0)
        assert np.array_equal(eq1.route_flows, eq2.route_flows)

    def test_nonconvergence_reports_best_iterate(self, monkeypatch):
        # with a polish that certifies nothing, one Frank-Wolfe iteration
        # cannot equalize three routes, so the best iterate is reported
        monkeypatch.setattr(equilibrium, "_face_polish", certify_nothing)
        net = Network(["a", "b", "c"], [["a"], ["b"], ["c"]])
        fns = {
            ("a", "s"): CostFunction.polynomial([1.0, 0.5, 0.3]),
            ("b", "s"): CostFunction.polynomial([0.5, 1.0, 0.2]),
            ("c", "s"): CostFunction.polynomial([0.8, 0.7, 0.1]),
        }
        model = CostModel(["a", "b", "c"], ["s"], fns, np.eye(3))
        with pytest.raises(SolverError) as info:
            solve_wardrop(net, model, Belief.point_mass(1, 0), 2.0, tol=1e-17, max_iter=1)
        assert info.value.best is not None
        assert info.value.best.gap >= 0.0

    def test_invalid_inputs(self, three_edge):
        with pytest.raises(ValueError):
            solve_wardrop(three_edge.network, three_edge.model, Belief.uniform(4), 0.0)
        with pytest.raises(ValueError):
            solve_wardrop(
                three_edge.network, three_edge.model, Belief.uniform(4), 1.0, tol=0.0
            )

    def test_a1_violation_rejected(self):
        from routelearn import CostError

        net = Network(["a"], [["a"]])
        fns = {("a", "s"): CostFunction.affine(0.0, 1.0)}
        model = CostModel(["a"], ["s"], fns, np.eye(1))
        with pytest.raises(CostError):
            solve_wardrop(net, model, Belief.point_mass(1, 0), 1.0)

    def test_edge_order_must_match_network(self):
        # solvers pair incidence rows with cost-table rows by position, so a
        # model that lists the edges in another order would swap the loads
        from routelearn import CostError

        net = Network(["a", "b"], [["a"], ["b"]])
        fns = {
            ("a", "s"): CostFunction.affine(1.0, 0.0),
            ("b", "s"): CostFunction.affine(1.0, 10.0),
        }
        model = CostModel(["a", "b"], ["s"], fns, np.eye(2))
        eq = solve_wardrop(net, model, Belief.point_mass(1, 0), 1.0)
        assert eq.edge_loads.tolist() == [1.0, 0.0]
        swapped = CostModel(["b", "a"], ["s"], fns, np.eye(2))
        for solve in (solve_wardrop_block, solve_wardrop_batch):
            with pytest.raises(CostError, match="edges"):
                solve(net, swapped, np.ones((1, 1)), 1.0)


class TestBlockSolver:
    def test_rows_equal_one_row_solves_bit_for_bit(self):
        # a row's result must not depend on the rows that share its block
        rng = np.random.default_rng(55)
        for max_degree in (1, 2):
            for _ in range(8):
                net, model, _, demand = random_multi_route_instance(rng, max_degree=max_degree)
                thetas = np.array([random_simplex(rng, model.n_states) for _ in range(12)])
                block = solve_wardrop_block(net, model, thetas, demand)
                assert block.converged.all()
                for i, theta in enumerate(thetas):
                    eq = solve_wardrop(net, model, Belief(theta), demand)
                    assert np.array_equal(block.route_flows[i], eq.route_flows)
                    assert np.array_equal(block.edge_loads[i], eq.edge_loads)
                    assert block.n_iterations[i] == eq.n_iterations

    def test_frank_wolfe_rows_equal_one_row_solves_bit_for_bit(self, monkeypatch):
        # the polish certifies every polynomial row above at iteration 1; with
        # one that certifies nothing, rows leave the loop at different
        # iterations and polynomial rows bisect in the line search
        monkeypatch.setattr(equilibrium, "_face_polish", certify_nothing)
        rng = np.random.default_rng(58)
        stops, bisected = set(), 0
        for _ in range(6):
            net, model, _, demand = random_multi_route_instance(rng, max_degree=2)
            thetas = np.array([random_simplex(rng, model.n_states) for _ in range(12)])
            block = solve_wardrop_block(net, model, thetas, demand, max_iter=60)
            stops |= set(block.n_iterations.tolist())
            poly = model.mixed_coefficients_batch(thetas)[:, :, 2:].any(axis=(1, 2))
            bisected += int((poly & (block.n_iterations > 1)).sum())
            for i, theta in enumerate(thetas):
                one = solve_wardrop_block(net, model, theta[None, :], demand, max_iter=60)
                assert np.array_equal(block.route_flows[i], one.route_flows[0])
                assert np.array_equal(block.gap[i], one.gap[0])
                assert block.n_iterations[i] == one.n_iterations[0]
        assert len(stops) > 2 and bisected > 0

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(56)
        for max_degree in (1, 2):
            for _ in range(8):
                net, model, _, demand = random_multi_route_instance(rng, max_degree=max_degree)
                thetas = np.array([random_simplex(rng, model.n_states) for _ in range(6)])
                block = solve_wardrop_block(net, model, thetas, demand)
                for i, theta in enumerate(thetas):
                    ref = _oracle(model, theta)(net, model, Belief(theta), demand)
                    assert np.max(np.abs(block.edge_loads[i] - ref.edge_loads)) <= 1e-12 * max(
                        1.0, demand
                    )

    def test_polished_affine_rows_match_reference_bit_for_bit(self, three_edge):
        rng = np.random.default_rng(57)
        thetas = rng.dirichlet(np.ones(4), size=40)
        thetas[::4, 1] = 0.0
        thetas /= thetas.sum(axis=1, keepdims=True)
        block = solve_wardrop_block(three_edge.network, three_edge.model, thetas, 1.0)
        for i, theta in enumerate(thetas):
            ref = reference_solve_wardrop(three_edge.network, three_edge.model, Belief(theta), 1.0)
            assert np.array_equal(block.edge_loads[i], ref.edge_loads)

    def test_mixed_affine_and_polynomial_rows(self):
        # a belief with no mass on the quadratic state has affine mixed costs
        # and takes one exact polish step; the other rows take Newton steps in
        # the same block
        net = wheatstone_network()
        fns = {}
        for i, e in enumerate(net.edge_ids):
            fns[(e, "lin")] = CostFunction.affine(1.0 + i, 1.0)
            fns[(e, "quad")] = CostFunction.polynomial([1.0, 1.0, 0.5])
        model = CostModel(net.edge_ids, ["lin", "quad"], fns, np.eye(net.n_edges))
        thetas = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        block = solve_wardrop_block(net, model, thetas, 1.0)
        for i, theta in enumerate(thetas):
            ref = _oracle(model, theta)(net, model, Belief(theta), 1.0)
            assert np.max(np.abs(block.edge_loads[i] - ref.edge_loads)) <= 1e-12

    def test_nonconverged_rows_are_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_face_polish", certify_nothing)
        scenario = scenario_from_dict(wheatstone_poly_payload())
        thetas = np.array([[0.25] * 4, [0.5, 0.5, 0.0, 0.0]])
        block = solve_wardrop_block(scenario.network, scenario.model, thetas, 1.0, max_iter=3)
        assert not block.converged.any()
        assert (block.n_iterations == 3).all()
        with pytest.raises(SolverError, match="no convergence within 3 iterations") as info:
            block.raise_unconverged()
        assert info.value.row == 0
        assert info.value.best.n_iterations == 3

    def test_potential_increase_raises_solver_error(self, monkeypatch):
        # full steps overshoot: from all flow on route a, the full step to
        # route b raises the potential from 1.5 to 2.0
        net = Network(["a", "b"], [["a"], ["b"]])
        fns = {("a", "s"): CostFunction.affine(1.0, 1.0), ("b", "s"): CostFunction.affine(1.0, 1.5)}
        model = CostModel(["a", "b"], ["s"], fns, np.eye(2))
        monkeypatch.setattr(equilibrium, "_line_search", lambda *args: np.ones(1))
        # a polish that certifies nothing, or it would end the solve at iteration 1
        monkeypatch.setattr(equilibrium, "_face_polish", certify_nothing)
        with pytest.raises(SolverError, match="potential increased at iteration 2") as info:
            solve_wardrop_block(net, model, np.array([[1.0]]), 1.0)
        assert info.value.row == 0

    def test_invalid_block_shape(self, three_edge):
        with pytest.raises(ValueError, match="belief matrix"):
            solve_wardrop_block(three_edge.network, three_edge.model, np.full((2, 3), 1 / 3), 1.0)


class TestInitFlows:
    """Warm starts: a block solve from given route flows, one row per belief."""

    @staticmethod
    def _case():
        scenario = scenario_from_dict(wheatstone_poly_payload())
        thetas = np.array([[0.25] * 4, [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        return scenario.network, scenario.model, thetas, scenario.demand

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.full((3, 2), 0.5), "init_flows has shape"),
            (np.full((2, 3), 1 / 3), "init_flows has shape"),
            (np.array([[1.2, -0.2, 0.0]] * 3), "init_flows must be finite and nonnegative"),
            (np.array([[np.nan, 1.0, 0.0]] * 3), "init_flows must be finite and nonnegative"),
            (np.array([[np.inf, 1.0, 0.0]] * 3), "init_flows must be finite and nonnegative"),
            (np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 1e-8], [0.0, 0.0, 1.0]]),
             "init_flows row 1 sums to"),
        ],
    )
    def test_invalid_start_raises_naming_it(self, bad, match):
        net, model, thetas, demand = self._case()
        with pytest.raises(ValueError, match=match):
            solve_wardrop_block(net, model, thetas, demand, init_flows=bad)

    def test_row_sum_within_rounding_is_accepted(self):
        net, model, thetas, demand = self._case()
        start = np.array([[1.0 / 3.0] * 3] * 3) * demand
        start[:, 0] += 5e-10 * demand
        assert solve_wardrop_block(net, model, thetas, demand, init_flows=start).converged.all()

    def test_default_start_given_explicitly_gives_the_same_bits(self):
        net, model, thetas, demand = self._case()
        free_flow = net.incidence.T @ model.mixed_coefficients_batch(thetas)[:, :, 0].T
        start = np.eye(net.n_routes)[free_flow.argmin(axis=0)] * demand
        given = solve_wardrop_block(net, model, thetas, demand, init_flows=start)
        default = solve_wardrop_block(net, model, thetas, demand)
        for field in ("route_flows", "edge_loads", "gap", "route_costs", "n_iterations",
                      "potential", "converged"):
            assert np.array_equal(getattr(given, field), getattr(default, field)), field

    def test_start_is_not_modified(self):
        net, model, thetas, demand = self._case()
        start = np.full((3, net.n_routes), demand / net.n_routes)
        kept = start.copy()
        solve_wardrop_block(net, model, thetas, demand, init_flows=start)
        assert np.array_equal(start, kept)

    def test_start_at_the_equilibrium_certifies_at_iteration_1(self):
        net, model, thetas, demand = self._case()
        cold = solve_wardrop_block(net, model, thetas, demand)
        warm = solve_wardrop_block(net, model, thetas, demand, init_flows=cold.route_flows)
        assert warm.converged.all() and (warm.n_iterations == 1).all()
        assert np.max(np.abs(warm.edge_loads - cold.edge_loads)) <= 1e-12

    def test_warm_started_rows_equal_one_row_solves_bit_for_bit(self):
        # each row starts from a random point of its simplex of route flows
        rng = np.random.default_rng(59)
        for max_degree in (1, 2):
            for _ in range(6):
                net, model, _, demand = random_multi_route_instance(rng, max_degree=max_degree)
                thetas = np.array([random_simplex(rng, model.n_states) for _ in range(10)])
                starts = rng.dirichlet(np.ones(net.n_routes), size=len(thetas)) * demand
                block = solve_wardrop_block(net, model, thetas, demand, init_flows=starts)
                assert block.converged.all()
                for i, theta in enumerate(thetas):
                    one = solve_wardrop_block(
                        net, model, theta[None, :], demand, init_flows=starts[i : i + 1]
                    )
                    assert np.array_equal(block.route_flows[i], one.route_flows[0])
                    assert block.n_iterations[i] == one.n_iterations[0]
                    _assert_matches_reference(net, model, theta, demand, block.edge_loads[i])


class TestDrainTable:
    """Point masses on the Wheatstone table whose free-flow-cheapest route carries no flow."""

    def test_point_masses_are_certified_within_eight_iterations(self):
        table = wheatstone_drain_table()
        scenario = scenario_from_dict(table.to_scenario())
        net, model = scenario.network, scenario.model
        free_flow = net.incidence.T @ table.coeffs[:, :, 0]  # (routes, states)
        assert (free_flow.argmin(axis=0) == 2).all()  # every solve starts on the zig-zag
        thetas = np.eye(model.n_states)
        block = solve_wardrop_block(net, model, thetas, scenario.demand)
        assert block.converged.all()
        for i, theta in enumerate(thetas):
            eq = solve_wardrop(net, model, Belief(theta), scenario.demand)
            assert eq.n_iterations == block.n_iterations[i] <= 8
            assert eq.route_flows[2] == 0.0
            slsqp = bench_reference().beckmann_loads(table, theta)
            assert np.max(np.abs(eq.edge_loads - slsqp)) <= 1e-8
            assert verify_equilibrium(net, model, Belief(theta), eq, tol=1e-12).ok


class TestBatchSolverRows:
    def test_rows_equal_rows_solved_alone(self):
        # each row of a mixed batch equals the same row solved in a batch of
        # its own; the Newton polish certifies every row at iteration 1
        scenario = scenario_from_dict(wheatstone_poly_payload())
        assert scenario.network.routes == wheatstone_network().routes
        thetas = np.array(
            [
                [0.25, 0.25, 0.25, 0.25],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.7, 0.1, 0.1, 0.1],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        eq = solve_wardrop_batch(scenario.network, scenario.model, thetas, 1.0)
        for i, theta in enumerate(thetas):
            alone = solve_wardrop_batch(scenario.network, scenario.model, theta[None, :], 1.0)
            assert np.array_equal(eq.edge_loads[i], alone.edge_loads[0])
            assert eq.gap[i] == alone.gap[0]
            _assert_matches_reference(scenario.network, scenario.model, theta, 1.0, eq.edge_loads[i])


    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_rows_equal_rows_solved_alone_in_any_order(self, seed):
        # rows without mass on the quadratic state take one exact polish step
        # even when their batch mates take Newton steps, and no row's bits
        # depend on its position
        rng = np.random.default_rng(seed)
        net, model, _, demand = random_multi_route_instance(rng)
        table = dict(model.table)
        for e in model.edges:
            table[(e, "quad")] = CostFunction.polynomial([1.0, 1.0, float(rng.uniform(0.1, 1.0))])
        model = CostModel(model.edges, (*model.states, "quad"), table, model.sigma)
        thetas = np.array([random_simplex(rng, model.n_states) for _ in range(16)])
        thetas[::2, -1] = 0.0
        thetas /= thetas.sum(axis=1, keepdims=True)
        eq = solve_wardrop_batch(net, model, thetas, demand)
        assert eq.converged.all()
        order = rng.permutation(len(thetas))
        shuffled = solve_wardrop_batch(net, model, thetas[order], demand)
        assert np.array_equal(shuffled.edge_loads, eq.edge_loads[order])
        assert np.array_equal(shuffled.gap, eq.gap[order])
        for i, theta in enumerate(thetas):
            alone = solve_wardrop_batch(net, model, theta[None, :], demand)
            assert np.array_equal(eq.edge_loads[i], alone.edge_loads[0])
            assert eq.gap[i] == alone.gap[0]
            _assert_matches_reference(net, model, theta, demand, eq.edge_loads[i])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _dependent_routes_case():
    """Two stages of two parallel edges: route incidence columns have rank 3 of 4."""
    net = Network(["a", "b", "c", "d"], [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]])
    fns = {(e, s): CostFunction.affine(1.0, 1.0 + k) for k, e in enumerate("abcd") for s in "xy"}
    fns[("a", "y")] = CostFunction.affine(2.0, 1.0)
    model = CostModel(list("abcd"), ["x", "y"], fns, np.eye(4))
    return net, model


class TestCertificatesAtReturnedFlows:
    """Each row's loads, route costs and potential come from the evaluation
    that certified it, not from a fresh one; they must equal a fresh
    evaluation of the whole block at the returned flows, bit for bit."""

    def check(self, net, model, thetas, demand, **kwargs):
        block = solve_wardrop_block(net, model, thetas, demand, **kwargs)
        w, t, phi = reference_block_evaluation(net, model, thetas, block.route_flows)
        assert _same_bits(block.edge_loads, w)
        assert _same_bits(block.route_costs, t)
        assert _same_bits(block.potential, phi)
        return block

    def test_rows_the_first_polish_certifies(self, three_edge):
        thetas = np.random.default_rng(61).dirichlet(np.ones(4), size=300)
        block = self.check(three_edge.network, three_edge.model, thetas, 1.0, tol=1e-10)
        assert (block.n_iterations == 1).all() and block.converged.all()

    @pytest.mark.parametrize("max_degree", [1, 2])
    def test_random_tables(self, max_degree):
        # affine rows and quadratic rows that take Newton steps, some of them
        # certified after iteration 1
        rng = np.random.default_rng(62 + max_degree)
        stops = set()
        for _ in range(8):
            net, model, _, demand = random_multi_route_instance(rng, max_degree=max_degree)
            thetas = np.array([random_simplex(rng, model.n_states) for _ in range(20)])
            stops |= set(self.check(net, model, thetas, demand).n_iterations.tolist())
        assert stops >= {1}

    def test_polynomial_newton_rows(self):
        scenario = scenario_from_dict(wheatstone_poly_payload())
        thetas = np.random.default_rng(64).dirichlet(np.ones(4), size=40)
        block = self.check(scenario.network, scenario.model, thetas, scenario.demand)
        assert block.converged.all()

    def test_rows_certified_by_frank_wolfe_alone(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_face_polish", certify_nothing)
        rng = np.random.default_rng(65)
        stops = set()
        for _ in range(6):
            net, model, _, demand = random_multi_route_instance(rng, max_degree=2)
            thetas = np.array([random_simplex(rng, model.n_states) for _ in range(12)])
            stops |= set(self.check(net, model, thetas, demand, max_iter=60).n_iterations.tolist())
        assert len(stops) > 2

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_capped_rows(self, monkeypatch, max_iter):
        # with the polish certifying nothing, most rows stop at the cap, and
        # the final polish is the real one
        real, calls = equilibrium._face_polish, []

        def late(*args):
            calls.append(len(args[3]))
            return (real if len(calls) > max_iter.bit_length() else certify_nothing)(*args)

        monkeypatch.setattr(equilibrium, "_face_polish", late)
        rng = np.random.default_rng(66)
        capped = 0
        for max_degree in (1, 2):
            net, model, _, demand = random_multi_route_instance(rng, max_degree=max_degree)
            thetas = np.array([random_simplex(rng, model.n_states) for _ in range(16)])
            calls.clear()
            block = self.check(net, model, thetas, demand, max_iter=max_iter)
            capped += int((block.n_iterations == max_iter).sum())
        assert capped > 0

    def test_rows_the_final_polish_certifies(self, monkeypatch):
        # the loop's polish calls (iterations 1 and 2) certify nothing; rows
        # that Frank-Wolfe stops at iteration 3 and rows at the cap get the
        # real final polish
        real, calls, certified = equilibrium._face_polish, [], []

        def final_only(*args):
            calls.append(1)
            if len(calls) <= 2:
                return certify_nothing(*args)
            ok = real(*args)
            certified.append(int(ok.sum()))
            return ok

        monkeypatch.setattr(equilibrium, "_face_polish", final_only)
        rng = np.random.default_rng(67)
        for _ in range(4):
            net, model, _, demand = random_multi_route_instance(rng, max_degree=2)
            thetas = np.array([random_simplex(rng, model.n_states) for _ in range(16)])
            calls.clear()
            self.check(net, model, thetas, demand, max_iter=3)
        assert sum(certified) > 0

    def test_dropped_route_retries(self, three_edge):
        # from an even split, beliefs in the {e1, e3} family solve the
        # two-route system to a negative flow on route 0, drop it and retry
        # with route 1 alone, all at iteration 1
        thetas = np.array([[0.0, 0.5, 0.0, 0.5], [0.0, 0.3, 0.0, 0.7], [0.1, 0.6, 0.1, 0.2]])
        block = self.check(
            three_edge.network, three_edge.model, thetas, 1.0, init_flows=np.full((3, 2), 0.5)
        )
        assert (block.n_iterations == 1).all()
        assert (block.route_flows[:, 0] == 0.0).all()

    def test_singular_systems_solved_one_by_one(self, monkeypatch):
        real, calls = equilibrium._solve_each, []

        def counting(m, rhs):
            calls.append(len(m))
            return real(m, rhs)

        monkeypatch.setattr(equilibrium, "_solve_each", counting)
        net, model = _dependent_routes_case()
        thetas = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        block = self.check(net, model, thetas, 1.0, init_flows=np.full((3, 4), 0.25))
        assert calls and block.converged.all()
