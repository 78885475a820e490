from __future__ import annotations

import numpy as np
import pytest

import routelearn.analysis as analysis
import routelearn.equilibrium as equilibrium
from routelearn import (
    Belief,
    CostFunction,
    CostModel,
    Network,
    SolverError,
    load_scenario,
    scenario_from_dict,
)
from routelearn.analysis import enumerate_rest_points
from routelearn.costs import polyint_coefficients
from routelearn.dynamics import run_block
from routelearn.equilibrium import solve_wardrop, solve_wardrop_batch

from oracles import (
    bench_reference,
    certify_nothing,
    exact_solve_wardrop,
    grid_payload,
    known_state,
    polyint_ascending,
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
    block = solve_wardrop_batch(
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
    @staticmethod
    def known(scenario, state):
        """The equilibrium when `state` is known: under its point-mass belief."""
        belief = known_state(scenario.model, state)
        return solve_wardrop(scenario.network, scenario.model, belief, scenario.demand)

    def test_true_state(self, three_edge):
        eq = self.known(three_edge, "none")
        assert np.allclose(eq.edge_loads, [1.0, 0.5, 0.5], atol=1e-12)

    def test_e2_compromised_pushes_flow_off(self, three_edge):
        # entry cost 10 on e2 exceeds the full-load e3 route; corner solution
        eq = self.known(three_edge, "e2")
        assert np.allclose(eq.edge_loads, [1.0, 0.0, 1.0], atol=1e-12)

    def test_e3_compromised_interior(self, three_edge):
        # slope-3 compromise on e3: q2 + 11 = 3*(1 - q2) + 11 gives q2 = 0.75
        eq = self.known(three_edge, "e3")
        assert np.allclose(eq.edge_loads, [1.0, 0.75, 0.25], atol=1e-12)
        assert np.allclose(eq.route_costs, [11.75, 11.75], atol=1e-12)

    def test_e1_compromised_symmetric_split(self, three_edge):
        eq = self.known(three_edge, "e1")
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

    def test_tolerance_scales_with_route_costs(self):
        # degree-4 costs at 20 times the demand: route costs up to about 1.7e6
        rng = np.random.default_rng(0)
        for _ in range(10):
            net, model, theta, demand = random_multi_route_instance(rng, max_degree=4)
            demand *= 20.0
            eq = solve_wardrop(net, model, theta, demand)
            cert = verify_equilibrium(net, model, theta, eq, tol=1e-9)
            assert cert.ok, cert.worst_violation
            # move 1e-6 of the demand from the cheapest used route to another route
            src = min(cert.used_routes, key=lambda r: cert.route_costs[r])
            dst = next(r for r in range(net.n_routes) if r != src)
            q = eq.route_flows.copy()
            q[src] -= 1e-6 * demand
            q[dst] += 1e-6 * demand
            assert not verify_equilibrium(net, model, theta, q, tol=1e-9).ok
        # two routes costing 1e6 + w: at tol 1e-9 a used route may cost 1e-3
        # more than the cheapest, so a gap of 1e-4, far above 1e-9, passes
        # and one of 1e-2 does not
        net = Network(["a", "b"], [["a"], ["b"]])
        fns = {(e, "s"): CostFunction.affine(1.0, 1e6) for e in "ab"}
        model = CostModel(["a", "b"], ["s"], fns, np.eye(2))
        theta = Belief.point_mass(1, 0)
        near = verify_equilibrium(net, model, theta, np.array([1 + 5e-5, 1 - 5e-5]), tol=1e-9)
        assert near.ok and near.worst_violation == pytest.approx(1e-4, rel=1e-6)
        far = verify_equilibrium(net, model, theta, np.array([1 + 5e-3, 1 - 5e-3]), tol=1e-9)
        assert not far.ok and far.worst_violation == pytest.approx(1e-2, rel=1e-6)

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

    def test_polish_ends_a_draining_solve(self):
        # from route 1, a route that is empty at equilibrium drains at O(1/k)
        # and the gap never reaches 1e-8, so the reference loop, which
        # polishes only at the end, runs to its cap; the polish certifies the
        # equilibrium in its first round
        rng = np.random.default_rng(21)
        for _ in range(9):
            net, model, theta, demand = random_multi_route_instance(rng)
        capped = reference_solve_wardrop(net, model, theta, demand, init_route=1, max_iter=2000)
        assert capped.n_iterations == 2000
        eq = _solve_from_route(net, model, theta, demand, 1, tol=1e-8)
        assert eq.n_iterations == 1
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
                eq = solve_wardrop_batch(net, model, thetas, demand, tol=1e-10)
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

    def test_nonconvergence_reports_the_start(self, monkeypatch):
        # with a polish that certifies nothing, the all-or-nothing start
        # cannot equalize three routes, so the start is reported
        monkeypatch.setattr(equilibrium, "_face_polish", certify_nothing)
        net = Network(["a", "b", "c"], [["a"], ["b"], ["c"]])
        fns = {
            ("a", "s"): CostFunction.polynomial([1.0, 0.5, 0.3]),
            ("b", "s"): CostFunction.polynomial([0.5, 1.0, 0.2]),
            ("c", "s"): CostFunction.polynomial([0.8, 0.7, 0.1]),
        }
        model = CostModel(["a", "b", "c"], ["s"], fns, np.eye(3))
        with pytest.raises(SolverError, match="no convergence after round 1") as info:
            solve_wardrop(net, model, Belief.point_mass(1, 0), 2.0, tol=1e-17)
        assert info.value.best.route_flows.tolist() == [0.0, 2.0, 0.0]
        assert info.value.best.gap > 0.0

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
        with pytest.raises(CostError, match="edges"):
            solve_wardrop_batch(net, swapped, np.ones((1, 1)), 1.0)


class TestBlockSolver:
    def test_rows_equal_one_row_solves_bit_for_bit(self):
        # a row's result must not depend on the rows that share its block
        rng = np.random.default_rng(55)
        for max_degree in (1, 2):
            for _ in range(8):
                net, model, _, demand = random_multi_route_instance(rng, max_degree=max_degree)
                thetas = np.array([random_simplex(rng, model.n_states) for _ in range(12)])
                block = solve_wardrop_batch(net, model, thetas, demand)
                assert block.converged.all()
                for i, theta in enumerate(thetas):
                    eq = solve_wardrop(net, model, Belief(theta), demand)
                    assert np.array_equal(block.route_flows[i], eq.route_flows)
                    assert np.array_equal(block.edge_loads[i], eq.edge_loads)
                    assert block.n_iterations[i] == eq.n_iterations

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(56)
        for max_degree in (1, 2):
            for _ in range(8):
                net, model, _, demand = random_multi_route_instance(rng, max_degree=max_degree)
                thetas = np.array([random_simplex(rng, model.n_states) for _ in range(6)])
                block = solve_wardrop_batch(net, model, thetas, demand)
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
        block = solve_wardrop_batch(three_edge.network, three_edge.model, thetas, 1.0)
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
        block = solve_wardrop_batch(net, model, thetas, 1.0)
        for i, theta in enumerate(thetas):
            ref = _oracle(model, theta)(net, model, Belief(theta), 1.0)
            assert np.max(np.abs(block.edge_loads[i] - ref.edge_loads)) <= 1e-12

    @pytest.mark.parametrize("rounds, certified", [(3, False), (4, True)])
    def test_rows_stop_at_the_step_cap(self, monkeypatch, rounds, certified):
        # these rows take 7 Newton steps from the zig-zag route; rounds of 2
        # steps certify them in round 4, and a cap of 3 rounds leaves them
        # unconverged at their start, flagged, not raised
        monkeypatch.setattr(equilibrium, "_ROUND", 2)
        monkeypatch.setattr(equilibrium, "_MAX_ROUNDS", rounds)
        scenario = scenario_from_dict(wheatstone_poly_payload())
        thetas = np.array([[0.25] * 4, [0.5, 0.5, 0.0, 0.0]])
        block = solve_wardrop_batch(scenario.network, scenario.model, thetas, 1.0)
        assert (block.n_iterations == rounds).all()
        assert (block.converged == certified).all()
        if certified:
            return
        assert (block.route_flows == [0.0, 0.0, 1.0]).all()
        with pytest.raises(SolverError, match="no convergence after round 3") as info:
            block.raise_unconverged()
        assert info.value.row == 0
        assert info.value.best.n_iterations == 3

    def test_invalid_block_shape(self, three_edge):
        with pytest.raises(ValueError, match="belief matrix"):
            solve_wardrop_batch(three_edge.network, three_edge.model, np.full((2, 3), 1 / 3), 1.0)


def _zero_one(rng, n_out, n_in, most):
    """A random (n_out, n_in) 0/1 matrix, each row holding 1 to `most` ones."""
    m = np.zeros((n_out, n_in))
    for j in range(n_out):
        m[j, rng.choice(n_in, size=rng.integers(1, min(most, n_in) + 1), replace=False)] = 1.0
    return m


def _signed_values(rng, n, k):
    """(n, k) values of every magnitude, with negatives, sums that cancel and
    zeros of both signs."""
    x = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-12, 12, size=(n, k))
    x[::5, -1] = -x[::5, 0]
    x[rng.random((n, k)) < 0.15] = 0.0
    x[rng.random((n, k)) < 0.15] = -0.0
    return x


class TestColumnKernels:
    """The incidence products and the Newton step's Gram matrix give numpy's
    bits whichever path computes them: column adds for blocks of at least
    _COLUMN_ADD_ROWS rows whose outputs sum at most two terms, else numpy."""

    ROWS = (equilibrium._COLUMN_ADD_ROWS - 1, equilibrium._COLUMN_ADD_ROWS, 700)

    @pytest.mark.parametrize("most", [1, 2, 3, 4])
    def test_incidence_products_match_matvec(self, most):
        rng = np.random.default_rng(most)
        for _ in range(20):
            n_out, n_in = rng.integers(1, 9, size=2)
            m = _zero_one(rng, n_out, n_in, most)
            two_terms = m.sum(axis=1).max() <= 2
            for n in self.ROWS:
                x = _signed_values(rng, n, n_in)
                want = np.matvec(m, x)
                assert _same_bits(equilibrium._matvec(m, x), want)
                assert _same_bits(equilibrium._matvec(m.T, want), np.matvec(m.T, want))
                assert (equilibrium._column_adds(m, x) is not None) == two_terms

    @pytest.mark.parametrize("most", [1, 2, 3])
    def test_gram_matches_the_stacked_product(self, most):
        # slopes are nonnegative, and zero where a cost is flat
        rng = np.random.default_rng(10 + most)
        for _ in range(20):
            n_edges, k = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            inc_k = _zero_one(rng, k, n_edges, most).T.copy()
            two_terms = (inc_k.T @ inc_k).max() <= 2
            for n in self.ROWS:
                slope = np.abs(_signed_values(rng, n, n_edges))
                got = equilibrium._gram(inc_k, slope)
                assert _same_bits(got, inc_k.T @ (slope[:, :, None] * inc_k))
                pairs = (inc_k.T[:, None, :] * inc_k.T[None, :, :]).reshape(k * k, -1)
                assert (equilibrium._column_adds(pairs, slope) is not None) == two_terms


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
            solve_wardrop_batch(net, model, thetas, demand, init_flows=bad)

    def test_row_sum_within_rounding_is_accepted(self):
        net, model, thetas, demand = self._case()
        start = np.array([[1.0 / 3.0] * 3] * 3) * demand
        start[:, 0] += 5e-10 * demand
        assert solve_wardrop_batch(net, model, thetas, demand, init_flows=start).converged.all()

    def test_default_start_given_explicitly_gives_the_same_bits(self):
        net, model, thetas, demand = self._case()
        free_flow = net.incidence.T @ model.mixed_coefficients_batch(thetas)[:, :, 0].T
        start = np.eye(net.n_routes)[free_flow.argmin(axis=0)] * demand
        given = solve_wardrop_batch(net, model, thetas, demand, init_flows=start)
        default = solve_wardrop_batch(net, model, thetas, demand)
        for field in ("route_flows", "edge_loads", "gap", "route_costs", "n_iterations",
                      "potential", "converged"):
            assert np.array_equal(getattr(given, field), getattr(default, field)), field

    def test_start_is_not_modified(self):
        net, model, thetas, demand = self._case()
        start = np.full((3, net.n_routes), demand / net.n_routes)
        kept = start.copy()
        solve_wardrop_batch(net, model, thetas, demand, init_flows=start)
        assert np.array_equal(start, kept)

    def test_start_at_the_equilibrium_certifies_at_iteration_1(self):
        net, model, thetas, demand = self._case()
        cold = solve_wardrop_batch(net, model, thetas, demand)
        warm = solve_wardrop_batch(net, model, thetas, demand, init_flows=cold.route_flows)
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
                block = solve_wardrop_batch(net, model, thetas, demand, init_flows=starts)
                assert block.converged.all()
                for i, theta in enumerate(thetas):
                    one = solve_wardrop_batch(
                        net, model, theta[None, :], demand, init_flows=starts[i : i + 1]
                    )
                    assert np.array_equal(block.route_flows[i], one.route_flows[0])
                    assert block.n_iterations[i] == one.n_iterations[0]
                    _assert_matches_reference(net, model, theta, demand, block.edge_loads[i])


class TestDrainTable:
    """Point masses on the Wheatstone table whose free-flow-cheapest route carries no flow."""

    def test_point_masses_are_certified_in_the_first_round(self):
        table = wheatstone_drain_table()
        scenario = scenario_from_dict(table.to_scenario())
        net, model = scenario.network, scenario.model
        free_flow = net.incidence.T @ table.coeffs[:, :, 0]  # (routes, states)
        assert (free_flow.argmin(axis=0) == 2).all()  # every solve starts on the zig-zag
        thetas = np.eye(model.n_states)
        block = solve_wardrop_batch(net, model, thetas, scenario.demand)
        assert block.converged.all()
        for i, theta in enumerate(thetas):
            eq = solve_wardrop(net, model, Belief(theta), scenario.demand)
            assert eq.n_iterations == block.n_iterations[i] == 1
            assert eq.route_flows[2] == 0.0
            slsqp = bench_reference().beckmann_loads(table, theta)
            assert np.max(np.abs(eq.edge_loads - slsqp)) <= 1e-8
            assert verify_equilibrium(net, model, Belief(theta), eq, tol=1e-12).ok


class TestPolynomialSafeguard:
    """Degree-4 rows from far starts: a Newton step that would raise the
    potential is backtracked, and every row still certifies."""

    @staticmethod
    def _check(net, model, theta, demand, eq, **kwargs):
        exact = exact_solve_wardrop(net, model, theta, demand, **kwargs)
        assert np.max(np.abs(eq.edge_loads - exact.edge_loads)) <= 1e-9
        # the gap bounds the relative suboptimality, up to the rounding of
        # two potentials summed in different orders
        assert eq.potential - exact.potential <= (eq.gap + 1e-14) * eq.potential

    def test_random_tables_from_every_route(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            net, model, theta, demand = random_multi_route_instance(rng, max_degree=4)
            for route in range(net.n_routes):
                eq = _solve_from_route(net, model, theta, demand, route)
                self._check(net, model, theta, demand, eq)

    def test_guarded_steps_backtrack(self, monkeypatch):
        # rounds of one step guard every step after the first; at 20 times
        # the drawn demand two of them would raise the potential
        monkeypatch.setattr(equilibrium, "_ROUND", 1)
        monkeypatch.setattr(equilibrium, "_MAX_ROUNDS", 64)
        real, backtracked = equilibrium._backtrack, []

        def recording(*args):
            backtracked.append(len(args[3]))
            return real(*args)

        monkeypatch.setattr(equilibrium, "_backtrack", recording)
        rng = np.random.default_rng(3)
        for _ in range(6):
            net, model, theta, demand = random_multi_route_instance(rng, max_degree=4)
            for route in range(net.n_routes):
                eq = _solve_from_route(net, model, theta, 20 * demand, route)
                self._check(net, model, theta, 20 * demand, eq)
        assert sum(backtracked) > 0

    def test_backtrack_halves_until_the_potential_does_not_rise(self):
        # two parallel routes costing 1 + w^3, so loads equal flows: from
        # (0.6, 0.4) toward (0, 1) the potential first stays below its start
        # at a quarter step; toward (1, 0), uphill, every step raises it
        coef = np.zeros((4, 2, 2))
        coef[0] = coef[3] = 1.0
        pcoef = polyint_coefficients(coef, axis=0)
        x = np.array([[0.6, 0.4], [0.6, 0.4]])
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        phi = equilibrium._potential(pcoef, x)
        flows, loads, potential = equilibrium._backtrack(np.eye(2), pcoef, phi, x, y)
        assert np.allclose(flows[0], [0.45, 0.55], rtol=0.0, atol=1e-15)
        assert np.array_equal(flows[1], x[1])
        assert np.array_equal(loads, flows)
        assert np.array_equal(potential, equilibrium._potential(pcoef, flows))
        assert potential[0] < phi[0] and potential[1] == phi[1]

    def test_drain_table_point_masses(self):
        scenario = scenario_from_dict(wheatstone_drain_table().to_scenario())
        net, model = scenario.network, scenario.model
        block = solve_wardrop_batch(net, model, np.eye(model.n_states), scenario.demand)
        assert block.converged.all()
        for i, theta in enumerate(np.eye(model.n_states)):
            # the reference loop drains the zig-zag only at O(1/k): start it elsewhere
            self._check(net, model, Belief(theta), scenario.demand, block.row(i), init_route=0)


class TestDependentRouteSets:
    """Directed grid tables, where tied routes often have linearly dependent
    incidence columns; every row the solver returns must be an equilibrium."""

    @pytest.mark.parametrize("g", range(6), ids=lambda g: f"g{g}")
    def test_grid_4x4_block_of_64_seeds_finishes(self, g):
        scenario = scenario_from_dict(grid_payload(4, 4, g))
        trajectories = list(run_block(scenario, range(64)))
        assert len(trajectories) == 64
        for traj in trajectories:
            for k in range(traj.n_stages):
                flows = traj.equilibria.route_flows[k]
                cert = verify_equilibrium(
                    scenario.network, scenario.model, Belief(traj.beliefs[k]), flows, tol=1e-9
                )
                assert cert.ok, (traj.seed, k + 1, cert.worst_violation)

    @pytest.mark.parametrize("g", range(6), ids=lambda g: f"g{g}")
    def test_grid_3x4_sweep_finishes(self, monkeypatch, g):
        real, solved = analysis.solve_wardrop_batch, []

        def recording(network, model, thetas, demand, **kwargs):
            block = real(network, model, thetas, demand, **kwargs)
            solved.append((thetas, block))
            return block

        monkeypatch.setattr(analysis, "solve_wardrop_batch", recording)
        scenario = scenario_from_dict(grid_payload(3, 4, g))
        report = enumerate_rest_points(scenario, 24)
        assert report.families
        for thetas, block in solved:
            for theta, flows in zip(thetas, block.route_flows):
                cert = verify_equilibrium(
                    scenario.network, scenario.model, Belief(theta), flows, tol=1e-9
                )
                assert cert.ok, (theta, cert.worst_violation)


_WHEATSTONE_THETAS = np.array(
    [
        [0.25, 0.25, 0.25, 0.25],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.7, 0.1, 0.1, 0.1],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def _grid_rows(g: int):
    """Table g of the 4 x 4 grid with six beliefs and six random starts: all
    20 routes start loaded, and 20 route columns have rank 10 on this grid."""
    rng = np.random.default_rng(g)
    return (
        grid_payload(4, 4, g),
        rng.dirichlet(np.full(5, 0.5), size=6),
        rng.dirichlet(np.ones(20), size=6),
    )


def _above_threshold_block(table: str):
    """A scenario and a block of more than _COLUMN_ADD_ROWS beliefs: the face
    that the sweep solves on three-edge at grid 30 (496 rows), or 300
    random beliefs on the Wheatstone bridge with degree-4 costs."""
    if table == "three-edge":
        scenario = load_scenario("three-edge")
        keep = analysis._face_states(scenario, 30)
        face = np.concatenate(list(analysis._simplex_grid_chunks(len(keep), 30, 10**6)))
        thetas = np.zeros((len(face), scenario.model.n_states))
        thetas[:, keep] = face
    else:
        scenario = scenario_from_dict(wheatstone_poly_payload())
        thetas = np.random.default_rng(69).dirichlet(np.ones(4), size=300)
    assert len(thetas) > equilibrium._COLUMN_ADD_ROWS
    return scenario, thetas


class TestBatchSolverRows:
    @pytest.mark.parametrize(
        "payload, thetas, starts",
        [(wheatstone_poly_payload(), _WHEATSTONE_THETAS, None)]
        + [_grid_rows(g) for g in (0, 1, 2, 4)],
        ids=["wheatstone-poly", "grid-4x4-g0", "grid-4x4-g1", "grid-4x4-g2", "grid-4x4-g4"],
    )
    def test_rows_equal_rows_solved_alone(self, payload, thetas, starts):
        # each row of a mixed batch equals the same row solved in a batch of
        # its own; on the grids, active routes have dependent incidence columns
        scenario = scenario_from_dict(payload)
        net, model = scenario.network, scenario.model
        eq = solve_wardrop_batch(net, model, thetas, 1.0, tol=1e-10, init_flows=starts)
        assert eq.converged.all()
        for i, theta in enumerate(thetas):
            start = None if starts is None else starts[i : i + 1]
            alone = solve_wardrop_batch(net, model, theta[None, :], 1.0, tol=1e-10, init_flows=start)
            assert np.array_equal(eq.route_flows[i], alone.route_flows[0])
            assert np.array_equal(eq.edge_loads[i], alone.edge_loads[0])
            assert eq.gap[i] == alone.gap[0]
            exact = exact_solve_wardrop(net, model, Belief(theta), 1.0)
            assert np.max(np.abs(eq.edge_loads[i] - exact.edge_loads)) <= 1e-12


    @pytest.mark.parametrize("table", ["three-edge", "wheatstone-poly"])
    def test_blocks_above_the_column_add_threshold(self, monkeypatch, table):
        # the block's incidence products take column adds, and each row
        # solved alone takes numpy's
        real, added = equilibrium._column_adds, []

        def recording(m, x):
            out = real(m, x)
            added.append(out is not None)
            return out

        monkeypatch.setattr(equilibrium, "_column_adds", recording)
        scenario, thetas = _above_threshold_block(table)
        net, model, demand = scenario.network, scenario.model, scenario.demand
        eq = solve_wardrop_batch(net, model, thetas, demand, tol=1e-10)
        assert eq.converged.all() and any(added)
        added.clear()
        for i, theta in enumerate(thetas):
            alone = solve_wardrop_batch(net, model, theta[None, :], demand, tol=1e-10)
            for field in ("route_flows", "edge_loads", "gap", "route_costs", "potential"):
                assert _same_bits(getattr(eq, field)[i], getattr(alone, field)[0]), (i, field)
            assert eq.n_iterations[i] == alone.n_iterations[0]
        assert not any(added)

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
        eq = solve_wardrop_batch(net, model, thetas, demand, tol=1e-10)
        assert eq.converged.all()
        order = rng.permutation(len(thetas))
        shuffled = solve_wardrop_batch(net, model, thetas[order], demand, tol=1e-10)
        assert np.array_equal(shuffled.edge_loads, eq.edge_loads[order])
        assert np.array_equal(shuffled.gap, eq.gap[order])
        for i, theta in enumerate(thetas):
            alone = solve_wardrop_batch(net, model, theta[None, :], demand, tol=1e-10)
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
        block = solve_wardrop_batch(net, model, thetas, demand, **kwargs)
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
        # affine rows and quadratic rows that take Newton steps
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

    @pytest.mark.parametrize("table", ["three-edge", "wheatstone-poly"])
    def test_blocks_above_the_column_add_threshold(self, table):
        # the oracle evaluates with np.matvec, the block with column adds
        scenario, thetas = _above_threshold_block(table)
        block = self.check(scenario.network, scenario.model, thetas, scenario.demand, tol=1e-10)
        assert block.converged.all()

    @pytest.mark.parametrize("rounds", [3, 4])
    def test_rows_of_later_rounds_and_at_the_cap(self, monkeypatch, rounds):
        # rounds of 2 Newton steps: rows certified after the first round,
        # and with a cap of 3 rounds rows left at their start
        monkeypatch.setattr(equilibrium, "_ROUND", 2)
        monkeypatch.setattr(equilibrium, "_MAX_ROUNDS", rounds)
        scenario = scenario_from_dict(wheatstone_poly_payload())
        thetas = np.random.default_rng(68).dirichlet(np.ones(4), size=20)
        block = self.check(scenario.network, scenario.model, thetas, scenario.demand)
        assert block.n_iterations.max() == rounds
        assert block.converged.all() == (rounds == 4)

    def test_dropped_route_retries(self, three_edge):
        # from an even split, beliefs in the {e1, e3} family solve the
        # two-route system to a negative flow on route 0, drop it and retry
        # with route 1 alone, all in the first round
        thetas = np.array([[0.0, 0.5, 0.0, 0.5], [0.0, 0.3, 0.0, 0.7], [0.1, 0.6, 0.1, 0.2]])
        block = self.check(
            three_edge.network, three_edge.model, thetas, 1.0, init_flows=np.full((3, 2), 0.5)
        )
        assert (block.n_iterations == 1).all()
        assert (block.route_flows[:, 0] == 0.0).all()

    def test_dependent_route_sets(self, monkeypatch):
        # from an even split all four routes are active and their incidence
        # columns have rank 3, so the equal-cost system is solved on three
        real, kept = equilibrium._independent, []

        def recording(inc, n_routes, pattern):
            out = real(inc, n_routes, pattern)
            kept.append((np.frombuffer(pattern, dtype=bool).sum(), len(out)))
            return out

        monkeypatch.setattr(equilibrium, "_independent", recording)
        net, model = _dependent_routes_case()
        thetas = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        block = self.check(net, model, thetas, 1.0, init_flows=np.full((3, 4), 0.25))
        assert (4, 3) in kept
        assert block.converged.all() and (block.n_iterations == 1).all()
