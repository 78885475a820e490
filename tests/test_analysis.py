from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import routelearn
from routelearn import analysis

from routelearn import (
    CONVERGED,
    Belief,
    CostFunction,
    CostModel,
    Network,
    check_complete_learning_conditions,
    compare_average_costs,
    check_rest_point,
    enumerate_rest_points,
    is_series_parallel,
    load_scenario,
    monte_carlo,
    scenario_from_dict,
    scenario_to_dict,
)
from routelearn.analysis import average_cost
from routelearn.cli import main
from routelearn.costs import polyval_ascending
from routelearn.dynamics import run_block
from routelearn.equilibrium import solve_wardrop
from routelearn.errors import SolverError

from oracles import (
    bench_reference,
    grid_payload,
    known_state,
    random_multi_route_instance,
    reference_bisect_boundary,
    reference_enumerate_rest_points,
    reference_complete_learning_conditions,
    reference_distinguishable_states,
    reference_rest_point_passes,
    reference_simplex_grid_chunks,
    table_scenario,
    wheatstone_network,
    wheatstone_poly_payload,
)


def fully_distinguishable_scenario(three_edge):
    """Variant where the alternate state changes the slope on every edge."""
    payload = scenario_to_dict(three_edge)
    payload["name"] = "fully-distinguishable"
    payload["states"] = ["ok", "bad"]
    payload["true_state"] = "ok"
    payload["initial_belief"] = [0.5, 0.5]
    payload["costs"] = [
        {"edge": e, "state": "ok", "form": "affine", "params": {"slope": 1.0, "intercept": 5.0}}
        for e in ("e1", "e2", "e3")
    ] + [
        {"edge": e, "state": "bad", "form": "affine", "params": {"slope": 2.0, "intercept": 5.0}}
        for e in ("e1", "e2", "e3")
    ]
    return scenario_from_dict(payload)


def one_route_per_edge(model) -> Network:
    """A network on the model's edges in which each edge is a route of its own."""
    return Network(model.edges, [[e] for e in model.edges])


def distinguishable_states(model, true_state, loads, cost_tol=1e-9, used_tol=0.0):
    """Labels of the states the kernel marks distinguishable at one load vector."""
    sc = table_scenario(
        one_route_per_edge(model), model, true_state, 1.0,
        used_edge=used_tol, cost_equality=cost_tol,
    )
    dist = analysis._distinguishable(sc, np.asarray(loads, dtype=float)[None, :])
    return {model.states[j] for j in np.flatnonzero(dist[0])}


class TestDistinguishableStates:
    def test_rest_point_load(self, three_edge):
        got = distinguishable_states(three_edge.model, "none", [1.0, 0.0, 1.0])
        assert got == {"e1", "e3"}

    def test_all_edges_loaded_distinct_tables(self, three_edge):
        got = distinguishable_states(three_edge.model, "none", [1.0, 0.5, 0.5])
        assert got == {"e1", "e2", "e3"}

    def test_zero_load(self, three_edge):
        assert distinguishable_states(three_edge.model, "none", [0.0, 0.0, 0.0]) == set()

    def test_used_tolerance_masks_dust(self, three_edge):
        got = distinguishable_states(
            three_edge.model, "none", [1.0, 1e-12, 1.0], used_tol=1e-9
        )
        assert got == {"e1", "e3"}


class TestAverageCost:
    def test_complete_information_value(self, three_edge):
        assert average_cost(three_edge, [1.0, 0.5, 0.5]) == pytest.approx(11.5, abs=1e-12)

    def test_rest_point_value(self, three_edge):
        assert average_cost(three_edge, [1.0, 0.0, 1.0]) == pytest.approx(12.0, abs=1e-12)

    def test_no_travelers(self, three_edge):
        assert average_cost(three_edge, [0.0, 0.0, 0.0]) == 0.0

    def test_costs_are_the_true_states(self, three_edge):
        # in state e2 the entry edge e2 costs 10 + w, in the truth 5 + w
        e2 = dataclasses.replace(three_edge, true_state="e2")
        assert average_cost(e2, [1.0, 0.5, 0.5]) == average_cost(three_edge, [1.0, 0.5, 0.5]) + 2.5


class TestCheckRestPoint:
    def test_complete_information_rest_point(self, three_edge):
        chk = check_rest_point(three_edge, Belief([0.0, 0.0, 0.0, 1.0]), [1.0, 0.5, 0.5])
        assert chk.ok
        assert chk.equilibrium_gap <= 1e-9
        assert chk.residual_mass == 0.0

    def test_family_member(self, three_edge):
        chk = check_rest_point(three_edge, Belief([0.0, 0.5, 0.0, 0.5]), [1.0, 0.0, 1.0])
        assert chk.ok
        assert chk.consistency_gap <= 1e-9

    def test_below_threshold_fails_equilibrium_clause(self, three_edge):
        chk = check_rest_point(three_edge, Belief([0.0, 0.1, 0.0, 0.9]), [1.0, 0.0, 1.0])
        assert not chk.ok
        assert "equilibrium_load_mismatch" in chk.violations
        # the actual equilibrium at x = 0.1 keeps e2 at load 0.25
        assert chk.equilibrium_gap == pytest.approx(0.25, abs=1e-9)

    def test_mass_clause_detected(self, three_edge):
        # the true equilibrium at x = 0.01 keeps all edges loaded, so the
        # stray 1% mass on the e2 state is distinguishable and over budget
        chk = check_rest_point(
            three_edge,
            Belief([0.0, 0.01, 0.0, 0.99]),
            [1.0, 0.475, 0.525],
            load_tol=1e-6,
            mass_tol=1e-3,
        )
        assert not chk.ok
        assert "equilibrium_load_mismatch" not in chk.violations
        assert "distinguishable_mass" in chk.violations
        assert chk.residual_mass == pytest.approx(0.01)


@pytest.fixture(scope="module")
def report(three_edge):
    return enumerate_rest_points(three_edge, 60)


class TestEnumerateRestPoints:
    def test_two_families(self, report):
        assert len(report.families) == 2

    def test_complete_information_family(self, report):
        fam = next(f for f in report.families if len(f.used) == 3)
        assert fam.support == ("none",)
        assert fam.n_nodes == 1
        assert np.allclose(fam.loads, [1.0, 0.5, 0.5], atol=1e-9)
        assert fam.average_cost_true == pytest.approx(11.5)
        assert fam.check.ok

    def test_partial_family_threshold(self, report):
        fam = next(f for f in report.families if len(f.used) == 2)
        assert fam.used == ("e1", "e3")
        assert fam.support == ("e2", "none")
        assert np.allclose(fam.loads, [1.0, 0.0, 1.0], atol=1e-9)
        assert fam.refined
        lo, hi = fam.thresholds["e2"]
        assert lo == pytest.approx(0.2, abs=1e-4)
        assert hi == pytest.approx(1.0)
        assert fam.average_cost_true == pytest.approx(12.0)

    def test_contains_complete_information_point(self, report, three_edge):
        # a point mass on the truth is always consistent with its own load
        fams = [f for f in report.families if "none" in f.support]
        truth = known_state(three_edge.model, "none")
        eq = solve_wardrop(three_edge.network, three_edge.model, truth, 1.0)
        assert any(np.allclose(f.loads, eq.edge_loads, atol=1e-9) for f in fams)

    def test_single_state_scenario(self):
        net = Network(["a", "b"], [["a"], ["b"]])
        fns = {
            ("a", "s"): CostFunction.affine(1.0, 2.0),
            ("b", "s"): CostFunction.affine(1.0, 4.0),
        }
        model = CostModel(["a", "b"], ["s"], fns, np.eye(2))
        report = enumerate_rest_points(table_scenario(net, model, "s", 2.0), 10)
        assert len(report.families) == 1
        eq = solve_wardrop(net, model, known_state(model, "s"), 2.0)
        assert np.allclose(report.families[0].loads, eq.edge_loads, atol=1e-9)

    def test_fully_distinguishable_only_truth(self, three_edge):
        sc = fully_distinguishable_scenario(three_edge)
        report = enumerate_rest_points(sc, 40)
        for fam in report.families:
            assert fam.support == ("ok",)

    def test_unused_edge_cost_is_overestimated_on_family(self, three_edge):
        # on the two-edge family the believed entry cost of e2 strictly
        # exceeds its true free-flow cost, which is what keeps e2 unused
        model = three_edge.model
        loads = np.array([1.0, 0.0, 1.0])
        for x in (0.2, 0.5, 1.0):
            theta = Belief([0.0, x, 0.0, 1.0 - x])
            # belief-weighted costs at the family's loads, as the solvers mix them
            mixed = model.mixed_coefficients_batch(theta.probs[None, :])[0]
            believed = polyval_ascending(mixed, loads)
            true_costs = model.cost_matrix(loads, range(3))[model.state_index("none")]
            assert believed[1] > true_costs[1] == 5.0
            # and the used edges are learned exactly
            assert believed[[0, 2]] == pytest.approx(true_costs[[0, 2]], abs=1e-12)
            assert true_costs[[0, 2]].tolist() == [6.0, 6.0]

    def test_rejects_large_state_spaces(self, three_edge):
        big = CostModel(
            ["a"],
            [f"s{i}" for i in range(7)],
            {("a", f"s{i}"): CostFunction.affine(1.0, 1.0) for i in range(7)},
            np.eye(1),
        )
        net = Network(["a"], [["a"]])
        with pytest.raises(ValueError):
            enumerate_rest_points(table_scenario(net, big, "s0", 1.0), 10)


class TestManyEdges:
    """Used-edge sets are keyed with no limit on the number of edges."""

    def parallel_edges(self, n_edges: int):
        # truth: e64 and e65 cost 1 + w, every other edge 100 + w; state x
        # moves e65 to 10 + w. Mass 1/9 or more on x leaves e65 unused, and
        # then x cannot be told from the truth
        edges = [f"e{i}" for i in range(n_edges)]
        fns = {}
        for e in edges:
            base = 1.0 if e in ("e64", "e65") else 100.0
            fns[(e, "truth")] = CostFunction.affine(1.0, base)
            fns[(e, "x")] = CostFunction.affine(1.0, 10.0 if e == "e65" else base)
        model = CostModel(edges, ["truth", "x"], fns, np.eye(n_edges))
        return Network(edges, [[e] for e in edges]), model

    def test_families_that_differ_past_edge_63(self):
        net, model = self.parallel_edges(70)
        report = enumerate_rest_points(table_scenario(net, model, "truth", 1.0), 4)
        assert [(f.used, f.support) for f in report.families] == [
            (("e64", "e65"), ("truth",)),
            (("e64",), ("truth", "x")),
        ]
        assert np.allclose(report.families[0].loads[64:66], [0.5, 0.5], atol=1e-12)
        assert np.allclose(report.families[1].loads[64:66], [1.0, 0.0], atol=1e-12)
        partial = report.families[1]
        assert partial.refined
        assert partial.thresholds["x"] == pytest.approx((1 / 9, 1.0), abs=1e-6)
        assert all(f.check.ok for f in report.families)


class TestSimplexGrid:
    @pytest.mark.parametrize("n_states", range(1, 7))
    def test_chunks_equal_the_itertools_grid(self, n_states):
        for grid_n in (1, 2, 5, 9):
            for chunk_size in (1, 4, 13, 10**6):
                got = list(analysis._simplex_grid_chunks(n_states, grid_n, chunk_size))
                want = list(reference_simplex_grid_chunks(n_states, grid_n, chunk_size))
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


class TestAverageCostComparison:
    def test_three_edge_holds(self, three_edge):
        report = enumerate_rest_points(three_edge, 25)
        cmp = compare_average_costs(three_edge, report.families)
        assert cmp.applicable and cmp.ok
        assert cmp.complete_info_cost == pytest.approx(11.5)
        costs = sorted(e.rest_cost for e in cmp.entries)
        assert costs == pytest.approx([11.5, 12.0])

    def test_equality_at_complete_information_point(self, three_edge):
        report = enumerate_rest_points(three_edge, 25)
        fam = next(f for f in report.families if len(f.used) == 3)
        cmp = compare_average_costs(three_edge, [fam])
        assert cmp.entries[0].rest_cost == pytest.approx(cmp.complete_info_cost)

    def test_not_applicable_on_wheatstone(self):
        net = wheatstone_network()
        fns = {(e, "s"): CostFunction.affine(1.0, 1.0) for e in net.edge_ids}
        model = CostModel(net.edge_ids, ["s"], fns, np.eye(5))
        cmp = compare_average_costs(table_scenario(net, model, "s", 1.0), [])
        assert not cmp.applicable
        assert cmp.complete_info_cost is None


class TestCompleteLearningConditions:
    def test_base_scenario_all_false(self, three_edge):
        rep = check_complete_learning_conditions(three_edge)
        assert not rep.fully_distinguishable
        # the e2 state hides on the route that avoids e2
        assert rep.witness_distinguishable[0] == "e2"
        assert not rep.state_independent_free_flow
        assert rep.witness_free_flow[0] == "e2"
        assert not rep.all_edges_used
        assert rep.witness_utilization[0] == "e2"
        assert not rep.any_holds

    def test_cond2_variant(self, cond2):
        rep = check_complete_learning_conditions(cond2)
        assert rep.state_independent_free_flow
        assert rep.any_holds

    def test_fully_distinguishable_variant(self, three_edge):
        sc = fully_distinguishable_scenario(three_edge)
        rep = check_complete_learning_conditions(sc)
        assert rep.fully_distinguishable

    def test_all_edges_used_at_high_demand(self, three_edge):
        payload = scenario_to_dict(three_edge)
        payload["name"] = "three-edge-high-demand"
        payload["demand"] = 20.0
        sc = scenario_from_dict(payload)
        rep = check_complete_learning_conditions(sc)
        assert rep.all_edges_used

    def test_condition_3_applies_the_scenarios_used_edge_rule(self, three_edge):
        # state e1's known-state loads are (1, 0.5, 0.5): e2 and e3 carry load
        # but are unused when only loads above 0.6 count, so e1 is the first
        # witness, ahead of e2, which leaves e2 without load at any tolerance
        rep = check_complete_learning_conditions(_with_tolerances(three_edge, used_edge=0.6))
        state, edge, load = rep.witness_utilization
        assert (state, edge) == ("e1", "e2") and load == pytest.approx(0.5, abs=1e-12)
        assert check_complete_learning_conditions(three_edge).witness_utilization == (
            "e2", "e2", 0.0
        )

    def test_knife_edge_equality_not_missed(self):
        # two states whose functions agree at one sampled point but differ as
        # functions: coefficient comparison must view them as distinct
        net = Network(["a", "b"], [["a"], ["b"]])
        fns = {
            ("a", "ok"): CostFunction.affine(1.0, 2.0),
            ("a", "alt"): CostFunction.polynomial([2.0, 0.5, 0.25]),
            ("b", "ok"): CostFunction.affine(1.0, 2.0),
            ("b", "alt"): CostFunction.affine(1.0, 2.0),
        }
        model = CostModel(["a", "b"], ["ok", "alt"], fns, np.eye(2))
        rep = check_complete_learning_conditions(table_scenario(net, model, "ok", 1.0))
        # the alt state still hides on route [b], so condition 1 fails there
        assert not rep.fully_distinguishable
        assert rep.witness_distinguishable == ("alt", 1)


class TestConditionImpliesCompleteLearning:
    def test_condition1_scenario_monte_carlo(self, three_edge):
        sc = fully_distinguishable_scenario(three_edge)
        batch = monte_carlo(sc, range(15))
        eq = solve_wardrop(sc.network, sc.model, known_state(sc.model, "ok"), 1.0)
        assert batch.n_converged == 15
        for s in batch.summaries:
            assert np.max(np.abs(s.terminal_loads - eq.edge_loads)) <= 1e-2


@st.composite
def distinguishability_cases(draw):
    """Random affine or polynomial table, truth, loads and tolerances.

    Small integer coefficients and loads on a quarter grid make many cost
    differences land exactly on `cost_tol`, and many loads exactly on
    `used_tol`, so the strict comparisons are tested at their knife edges.
    """
    n_edges = draw(st.integers(1, 4))
    n_states = draw(st.integers(1, 4))
    degree = draw(st.integers(1, 3))
    coef = st.integers(0, 3).map(float)
    edges = [f"e{i}" for i in range(n_edges)]
    states = [f"s{j}" for j in range(n_states)]
    table = {
        (e, s): CostFunction.polynomial(draw(st.lists(coef, min_size=2, max_size=degree + 1)))
        for e in edges
        for s in states
    }
    model = CostModel(edges, states, table, np.eye(n_edges))
    load = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    rows = draw(st.lists(st.lists(load, min_size=n_edges, max_size=n_edges), min_size=1, max_size=6))
    return (
        model,
        draw(st.integers(0, n_states - 1)),
        np.array(rows),
        draw(st.sampled_from([1e-9, 0.25, 0.5, 1.0])),
        draw(st.sampled_from([0.0, 1e-9, 0.25, 0.5])),
    )


class TestDistinguishableKernel:
    @settings(max_examples=300, deadline=None)
    @given(distinguishability_cases())
    def test_kernel_matches_label_loop(self, case):
        model, true_idx, loads, cost_tol, used_tol = case
        truth = model.states[true_idx]
        sc = table_scenario(
            one_route_per_edge(model), model, truth, 1.0,
            used_edge=used_tol, cost_equality=cost_tol,
        )
        dist = analysis._distinguishable(sc, loads)
        assert dist.shape == (len(loads), model.n_states)
        for row, w in zip(dist, loads):
            want = reference_distinguishable_states(model, truth, w, cost_tol, used_tol)
            assert {model.states[j] for j in np.flatnonzero(row)} == want

    @pytest.mark.parametrize(
        "load, cost_tol, used_tol, expected",
        [
            (0.5, 0.5, 0.0, set()),  # cost difference exactly cost_tol
            (0.5, 0.25, 0.0, {"alt"}),
            (0.5, 0.25, 0.5, set()),  # load exactly used_tol
            (0.5, 0.25, 0.25, {"alt"}),
        ],
    )
    def test_knife_edges_are_strict(self, load, cost_tol, used_tol, expected):
        fns = {("a", "ok"): CostFunction.affine(1.0, 2.0), ("a", "alt"): CostFunction.affine(1.0, 2.5)}
        model = CostModel(["a"], ["ok", "alt"], fns, np.eye(1))
        w = np.array([[load]])
        sc = table_scenario(
            one_route_per_edge(model), model, "ok", 1.0, used_edge=used_tol, cost_equality=cost_tol
        )
        dist = analysis._distinguishable(sc, w)
        assert {model.states[j] for j in np.flatnonzero(dist[0])} == expected
        assert reference_distinguishable_states(model, "ok", w[0], cost_tol, used_tol) == expected


class TestRestPointCheckLayout:
    def test_cost_matrix_layout_does_not_change_the_check(self, three_edge, monkeypatch):
        # a vector-matrix product sums a C-ordered and an F-ordered (S, m)
        # matrix in different orders (22 of these 50 draws differed), and at
        # 12 states numpy's pairwise sum of a product does too; the believed
        # cost adds the states one at a time, in state order
        net = three_edge.network
        rng = np.random.default_rng(2024)
        states = [f"s{j}" for j in range(12)]
        fns = {
            (e, s): CostFunction.polynomial(list(rng.uniform(0.5, 3.0, size=3)))
            for e in net.edge_ids
            for s in states
        }
        model = CostModel(net.edge_ids, states, fns, np.eye(3))
        real = CostModel.cost_matrix

        def check(theta, loads, order):
            def laid_out(self, w, idx):
                return np.asarray(real(self, w, idx), order=order)

            monkeypatch.setattr(CostModel, "cost_matrix", laid_out)
            return check_rest_point(table_scenario(net, model, "s0", 1.0), theta, loads)

        for _ in range(50):
            theta = Belief(rng.dirichlet(np.ones(12)))
            loads = rng.uniform(0.1, 1.0, size=3)
            assert check(theta, loads, "C") == check(theta, loads, "F")


class TestResidualMassHashSeed:
    def test_residual_mass_is_bit_identical_across_hash_seeds(self):
        # a sum over a set of labels follows the set's hash order; the mass
        # at loads (1, 0.5, 0.5) sums three states, whose order shows in the last bit
        script = (
            "from routelearn import Belief, check_rest_point, load_scenario\n"
            "sc = load_scenario('three-edge')\n"
            "chk = check_rest_point(sc, Belief([0.1, 0.2, 0.3, 0.4]), [1.0, 0.5, 0.5])\n"
            "print(chk.residual_mass.hex())\n"
        )
        src = str(Path(routelearn.__file__).resolve().parents[1])
        seen = set()
        for seed in range(4):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            res = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            seen.add(res.stdout.strip())
        assert len(seen) == 1


def _face(n_states: int, i: int, j: int, grid_n: int) -> np.ndarray:
    xs = np.arange(grid_n + 1) / grid_n
    face = np.zeros((len(xs), n_states))
    face[:, i] = xs
    face[:, j] = 1.0 - xs
    return face


def _used_key(loads, used_tol) -> int:
    return sum(1 << k for k in np.flatnonzero(loads > used_tol))


class TestBlockRefinement:
    """The rest-point screen is one block solve; with the used-set test the
    bisection adds, it must agree with one solve per row."""

    def check_face(self, network, model, true_idx, face, demand, key):
        used_tol = 1e-9 * demand
        sc = table_scenario(network, model, model.states[true_idx], demand)
        eq, ok = analysis._rest_point_screen(sc, face)
        got = ok & np.array([_used_key(w, used_tol) == key for w in eq.edge_loads])
        want = [
            reference_rest_point_passes(
                network, model, sc.true_state, row, demand, key, mass_tol=1e-9, cost_tol=1e-9,
                used_tol=used_tol, solver_tol=1e-10,
            )
            for row in face
        ]
        assert got.tolist() == want
        return got

    def test_three_edge_partial_family_face(self, three_edge):
        # (e2, none) face, used set {e1, e3}: rest points from x = 0.2 on
        face = _face(4, 1, 3, 20)
        got = self.check_face(three_edge.network, three_edge.model, 3, face, 1.0, 0b101)
        assert got.tolist() == [False] * 4 + [True] * 17

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_affine_faces(self, seed):
        rng = np.random.default_rng(seed)
        network, model, _, demand = random_multi_route_instance(rng)
        while model.n_states < 2:
            network, model, _, demand = random_multi_route_instance(rng)
        i, j = sorted(rng.choice(model.n_states, size=2, replace=False))
        true_idx = int(rng.choice([i, j]))
        face = _face(model.n_states, i, j, 10)
        row = face[int(rng.integers(len(face)))]
        eq = solve_wardrop(network, model, Belief(row), demand, tol=1e-10)
        self.check_face(network, model, true_idx, face, demand, _used_key(eq.edge_loads, 1e-9 * demand))


def _tie_to_truth(model: CostModel, truth: str, rng) -> CostModel:
    """Copy the truth's function, or only its intercept, into random entries."""
    table = {}
    for e in model.edges:
        for s in model.states:
            own, true_fn = model.table[(e, s)], model.table[(e, truth)]
            pick = rng.integers(3)
            if pick == 1:
                own = true_fn
            elif pick == 2:
                own = CostFunction.affine(own.coefficients[1], true_fn.intercept)
            table[(e, s)] = own
    return CostModel(model.edges, model.states, table, model.sigma)


def _condition_tuple(rep) -> tuple:
    return (
        rep.fully_distinguishable,
        rep.witness_distinguishable,
        rep.state_independent_free_flow,
        rep.witness_free_flow,
        rep.all_edges_used,
        rep.witness_utilization,
    )


class TestBlockConditions:
    """Array tests and one block solve must give the loops' first witnesses."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_affine_tables_match_loops(self, seed):
        rng = np.random.default_rng(seed)
        network, model, _, demand = random_multi_route_instance(rng)
        truth = model.states[int(rng.integers(model.n_states))]
        model = _tie_to_truth(model, truth, rng)
        # the default rule, or one that takes up to a quarter of the demand as unused
        used_edge = [None, 0.25 * demand * rng.random()][int(rng.integers(2))]
        sc = table_scenario(network, model, truth, demand, used_edge=used_edge)
        got = check_complete_learning_conditions(sc)
        want = reference_complete_learning_conditions(network, model, truth, demand, sc.used_edge_tol)
        assert _condition_tuple(got) == want

    @pytest.mark.parametrize("name", ["three-edge", "three-edge-cond2", "wheatstone"])
    def test_scenarios_match_loops(self, name, three_edge, cond2):
        sc = {"three-edge": three_edge, "three-edge-cond2": cond2}.get(name)
        if sc is None:
            sc = scenario_from_dict(wheatstone_poly_payload())
        got = check_complete_learning_conditions(sc)
        want = reference_complete_learning_conditions(
            sc.network, sc.model, sc.true_state, sc.demand, 1e-9 * sc.demand
        )
        assert _condition_tuple(got) == want


@pytest.fixture
def unconverged_known_state(monkeypatch):
    """Make the known-state solve of one state report no convergence."""
    real = analysis.solve_wardrop_batch
    row = {}

    def patched(network, model, thetas, demand, **kw):
        block = real(network, model, thetas, demand, **kw)
        if "index" in row and np.array_equal(thetas, np.eye(model.n_states)):
            converged = block.converged.copy()
            converged[row["index"]] = False
            block = dataclasses.replace(block, converged=converged)
        return block

    monkeypatch.setattr(analysis, "solve_wardrop_batch", patched)
    return row


class TestConditionExitCodes:
    # In three-edge the first state that leaves an edge unused is e2 (row 1).
    def test_failure_after_the_witness_is_not_examined(self, three_edge, unconverged_known_state):
        unconverged_known_state["index"] = 2
        rep = check_complete_learning_conditions(three_edge)
        assert rep.witness_utilization[0] == "e2"

    @pytest.mark.parametrize("index", [0, 1])
    def test_failure_up_to_the_witness_raises(self, three_edge, unconverged_known_state, index):
        unconverged_known_state["index"] = index
        with pytest.raises(SolverError):
            check_complete_learning_conditions(three_edge)

    @pytest.mark.parametrize("index, code", [(0, 3), (1, 3), (2, 0), (3, 0)])
    def test_check_exit_code(self, tmp_path, unconverged_known_state, index, code):
        unconverged_known_state["index"] = index
        argv = ["check", "--scenario", "three-edge", "--grid-n", "5", "--out-dir", str(tmp_path)]
        assert main(argv) == code


class TestUnconvergedSweepRows:
    """A sweep row that does not converge raises; it is never classified."""

    def test_unconverged_row_raises(self, three_edge, tmp_path, monkeypatch):
        real_batch = analysis.solve_wardrop_batch
        swept = []

        def flagged(network, model, thetas, demand, **kw):
            # every other row of a sweep block stops short, with loads of zero
            swept.append(thetas)
            eq = real_batch(network, model, thetas, demand, **kw)
            stop = np.arange(len(thetas)) % 2 == 0
            loads = np.where(stop[:, None], 0.0, eq.edge_loads)
            return dataclasses.replace(eq, edge_loads=loads, converged=eq.converged & ~stop)

        monkeypatch.setattr(analysis, "solve_wardrop_batch", flagged)
        # the error names the first flagged row's grid node
        with pytest.raises(SolverError, match=r"^belief \(0, 0, 0, 1\): no convergence"):
            enumerate_rest_points(three_edge, 20)
        # the first sweep block raised, before any refinement: the sweep and
        # the bisection solve through the same function
        assert len(swept) == 1 and len(swept[0]) == math.comb(22, 2)
        argv = ["enumerate", "--scenario", "three-edge", "--grid-n", "5", "--out-dir", str(tmp_path)]
        assert main(argv) == 3

    def test_unconverged_refinement_row_names_its_belief(self, three_edge, monkeypatch):
        real_batch, calls = analysis.solve_wardrop_batch, []

        def flagged(network, model, thetas, demand, **kw):
            # after the one sweep block, row 0 of each bisection block stops
            # short: the first midpoint, e2 = 0.175 between the grid nodes
            # 0.15 and 0.2, which every walk down the tree starts from
            calls.append(len(thetas))
            eq = real_batch(network, model, thetas, demand, **kw)
            if len(calls) == 1:
                return eq
            return dataclasses.replace(eq, converged=eq.converged & (np.arange(len(thetas)) != 0))

        monkeypatch.setattr(analysis, "solve_wardrop_batch", flagged)
        with pytest.raises(SolverError, match=r"^belief \(0, 0.175, 0, 0.825\): no convergence"):
            enumerate_rest_points(three_edge, 20)
        # the block of 15 midpoints, then the walk's first midpoint alone
        assert calls == [math.comb(22, 2), 15, 1]


class TestBatchedBisection:
    """`_bisect_boundary` probes four halvings per predicate call; it must end
    where the one-midpoint-at-a-time oracle ends, and raise only when that
    oracle does."""

    @staticmethod
    def predicates(boundary, x_fail, x_pass, closed, bad):
        """One-point and vectorised forms of a monotone predicate that passes
        on the x_pass side of `boundary` (including it when `closed`), and
        that cannot decide the point `bad`."""
        above, calls = x_pass > x_fail, []

        def one(x):
            if x == bad:
                raise SolverError("no convergence")
            if x == boundary:
                return closed
            return (x > boundary) == above

        def many(xs):
            calls.append(len(xs))
            return np.array([one(float(x)) for x in xs], dtype=bool)

        return one, many, calls

    @staticmethod
    def outcome(bisect, predicate, x_fail, x_pass, tol):
        try:
            return float(bisect(predicate, x_fail, x_pass, tol))
        except SolverError:
            return "raised"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_sequential_bisection(self, data):
        lo = data.draw(st.floats(-100.0, 100.0), label="lo")
        # a width of a few float spacings leaves midpoints that round onto an endpoint
        ulps = st.integers(1, 4).map(lambda k: k * math.ulp(lo))
        hi = lo + data.draw(st.one_of(st.floats(0.0, 10.0), ulps), label="width")
        x_fail, x_pass = (lo, hi) if data.draw(st.booleans(), label="passes above") else (hi, lo)
        tol = data.draw(
            st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-15, 1e-6]), st.floats(1e-12, 1.0)),
            label="tol",
        )
        closed = data.draw(st.booleans(), label="closed")
        boundary = data.draw(st.floats(min(lo, hi), max(lo, hi)), label="boundary")
        if data.draw(st.booleans(), label="tie"):
            # move the boundary onto a midpoint that the bisection probes
            mids = []
            probe = self.predicates(boundary, x_fail, x_pass, closed, None)[0]
            reference_bisect_boundary(lambda x: mids.append(x) or probe(x), x_fail, x_pass, tol)
            if mids:
                boundary = data.draw(st.sampled_from(mids), label="tied midpoint")

        one, many, calls = self.predicates(boundary, x_fail, x_pass, closed, None)
        want = self.outcome(reference_bisect_boundary, one, x_fail, x_pass, tol)
        assert self.outcome(analysis._bisect_boundary, many, x_fail, x_pass, tol) == want
        if not calls:
            return
        # one point of the first block cannot be decided; on the walked path
        # it raises, as it does in the oracle, and off it, it changes nothing
        assert calls[0] <= 2**analysis._BISECT_LEVELS - 1
        block = []
        analysis._bisect_boundary(lambda xs: block.append(xs) or many(xs), x_fail, x_pass, tol)
        bad = data.draw(st.sampled_from(block[0].tolist()), label="undecidable")
        one, many, _ = self.predicates(boundary, x_fail, x_pass, closed, bad)
        want = self.outcome(reference_bisect_boundary, one, x_fail, x_pass, tol)
        assert self.outcome(analysis._bisect_boundary, many, x_fail, x_pass, tol) == want

    def test_calls_cover_four_halvings_each(self):
        # 13 halvings, from a grid step of 1/200 down to 1e-6, take 4 calls
        one, many, calls = self.predicates(0.2, 0.195, 0.2, True, None)
        got = analysis._bisect_boundary(many, 0.195, 0.2, 1e-6)
        seq = []
        want = reference_bisect_boundary(lambda x: seq.append(x) or one(x), 0.195, 0.2, 1e-6)
        assert got == want and len(seq) == 13
        assert calls == [15, 15, 15, 1]

    def test_adjacent_endpoints_end_at_once(self):
        x = 0.2
        nxt = math.nextafter(x, 1.0)
        one, many, calls = self.predicates(x, x, nxt, True, None)
        assert analysis._bisect_boundary(many, x, nxt, 0.0) == nxt
        assert calls == []


class TestSweepArguments:
    GRID = 20

    def sweep(self, sc, **kw):
        return enumerate_rest_points(sc, self.GRID, **kw)

    @pytest.mark.parametrize("chunk_size", [-5, 0, 2.5, True, None])
    def test_chunk_size_must_be_a_positive_integer(self, three_edge, chunk_size):
        with pytest.raises(ValueError, match="chunk_size"):
            self.sweep(three_edge, chunk_size=chunk_size)

    def test_small_chunks_and_a_tolerance_below_float_spacing(self, three_edge, monkeypatch):
        default = self.sweep(three_edge)
        assert (len(default.families), default.n_passing) == (2, 18)
        sweeps = [self.sweep(three_edge, chunk_size=k) for k in (1, np.int64(7))]
        # the refinement stops once a midpoint rounds onto an endpoint
        monkeypatch.setattr(analysis, "_REFINE_TOL", 1e-300)
        sweeps.append(self.sweep(three_edge))
        for got in sweeps:
            assert (len(got.families), got.n_passing) == (2, 18)
            assert [f.used for f in got.families] == [f.used for f in default.families]
        assert got.families[1].thresholds["e2"][0] == pytest.approx(0.2, abs=1e-6)

    def test_families_do_not_depend_on_the_block_size(self):
        # a family's loads are a mean over its nodes; a sum per block moved
        # 4x4 g3's loads by up to 1.4e-12 between these block sizes
        def bits(report):
            return [
                (f.used, f.loads.tobytes(), f.representative.tobytes(), f.n_nodes, f.thresholds,
                 f.average_cost_true, f.check)
                for f in report.families
            ]

        sc = scenario_from_dict(grid_payload(4, 4, 3))
        default = bits(enumerate_rest_points(sc, 40))
        for chunk_size in (97, 2048):
            assert bits(enumerate_rest_points(sc, 40, chunk_size=chunk_size)) == default

    def test_refinement_at_grid_200_takes_four_block_solves(self, three_edge, monkeypatch):
        real, sizes = analysis._rest_point_screen, []

        def spy(scenario, thetas):
            sizes.append(len(thetas))
            return real(scenario, thetas)

        monkeypatch.setattr(analysis, "_rest_point_screen", spy)
        rep = enumerate_rest_points(three_edge, 200)
        # the face sweep, then the bisection below e2 = 0.2 from the family's
        # first node, with no scan of the (e2, none) edge in between
        assert sizes == [math.comb(202, 2), 15, 15, 15, 1]
        assert [f.thresholds for f in rep.families][1]["e2"][0] == pytest.approx(0.2, abs=1e-6)


def _face_case(rng):
    """Small network and a table built around its truth, for the face sweep.

    Other states differ from the truth edge by edge in one of five ways: not
    at all, by a one-signed affine or quadratic term (distinguishable from
    lo = demand / n_routes up), by a term that is exactly `cost_tol` at lo,
    or by a term that changes sign at a load in [0, demand], which ties the
    state with the truth there. Edges shared by every route make cuts
    likely. Coefficients are multiples of 1/4 so knife edges are exact.
    """
    n_routes = int(rng.integers(2, 4))
    routes = [[f"r{r}e{i}" for i in range(int(rng.integers(1, 3)))] for r in range(n_routes)]
    edges = [e for r in routes for e in r]
    for k in range(int(rng.integers(0, 3))):
        on = rng.random(n_routes) < 0.7
        on[int(rng.integers(n_routes))] = True
        for r in np.flatnonzero(on):
            routes[r].append(f"s{k}")
        edges.append(f"s{k}")
    network = Network(edges, routes)
    demand = float(rng.choice([1.0, 2.0]))
    lo = demand / n_routes
    cost_tol = float(rng.choice([1e-9, 0.25]))
    quarter = lambda lo_, hi_: float(rng.integers(lo_ * 4, hi_ * 4 + 1)) / 4
    truth = {
        e: [quarter(1, 6), quarter(1, 3), quarter(0, 1) * (rng.random() < 0.4)] for e in edges
    }
    states = [f"st{j}" for j in range(int(rng.integers(2, 5)))]
    true_state = states[int(rng.integers(len(states)))]
    table = {}
    for s in states:
        for e in edges:
            kind = 0 if s == true_state else int(rng.integers(5))
            sign = float(rng.choice([-1.0, 1.0]))
            if kind == 0:
                delta = [0.0, 0.0, 0.0]
            elif kind == 1:
                delta = [quarter(0, 1), quarter(0, 1), 0.0]
            elif kind == 2:
                delta = [quarter(0, 1), quarter(0, 1), quarter(0, 1)]
            elif kind == 3:
                delta = [0.0, cost_tol / lo, 0.0]
            else:
                root = float(rng.choice([lo, demand, quarter(0, demand)]))
                delta = [-root * 0.5, 0.5, 0.0]
            if sign < 0:  # keep every cost increasing in the load
                delta = [-delta[0], -min(delta[1], 0.5), 0.0]
            table[(e, s)] = CostFunction.polynomial(
                [t + d for t, d in zip(truth[e], delta)]
            )
    model = CostModel(edges, states, table, np.eye(len(edges)))
    return table_scenario(network, model, true_state, demand, cost_equality=cost_tol)


def _family_fields(fam) -> tuple:
    return (
        fam.used, fam.support, fam.n_nodes, fam.loads.tolist(), fam.representative.tolist(),
        fam.thresholds, fam.refined, fam.average_cost_true, fam.check,
    )


def _assert_matches_full_sweep(scenario, grid_n, **kw):
    """The face sweep reports what the full sweep of every grid node reports."""
    got = enumerate_rest_points(scenario, grid_n, **kw)
    want = reference_enumerate_rest_points(scenario, grid_n, **kw)
    assert (got.n_nodes, got.n_passing) == (want.n_nodes, want.n_passing)
    assert [_family_fields(f) for f in got.families] == [_family_fields(f) for f in want.families]
    assert got.max_solver_gap <= want.max_solver_gap
    return got


class TestFaceSweep:

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9))
    def test_random_tables_match_full_sweep(self, seed, grid_n):
        _assert_matches_full_sweep(_face_case(np.random.default_rng(seed)), grid_n)

    @pytest.mark.parametrize("rows, g", [(rows, g) for rows in (3, 4) for g in range(6)])
    def test_grid_tables_match_full_sweep(self, rows, g):
        # 17 and 24 edges, so the used-edge masks and their order span several bytes
        _assert_matches_full_sweep(scenario_from_dict(grid_payload(rows, 4, g)), 6)

    def test_full_grid_order_restricted_to_the_face(self, three_edge, monkeypatch):
        # the sweep solves, in order, the full grid's rows that give e1 no mass
        solved = []
        real = analysis.solve_wardrop_batch

        def recording(network, model, thetas, demand, **kw):
            solved.append(thetas.copy())
            return real(network, model, thetas, demand, **kw)

        monkeypatch.setattr(analysis, "solve_wardrop_batch", recording)
        got = _assert_matches_full_sweep(three_edge, 20, chunk_size=50)
        full = np.concatenate(list(analysis._simplex_grid_chunks(4, 20, 10**6)))
        # the reference sweep calls the solver directly; the sweep's five
        # blocks of at most 50 rows come before the bisection's blocks
        assert [len(t) for t in solved[:5]] == [50, 50, 50, 50, 31]
        assert all(len(t) <= 15 for t in solved[5:])
        face = np.concatenate(solved[:5])
        assert np.array_equal(face, full[full[:, 0] == 0.0])
        assert len(face) == math.comb(22, 2) == 231
        assert got.n_nodes == len(full) == math.comb(23, 3)


def _bench_wheatstone():
    """The benchmark's Wheatstone table (bench/reference.py), as a scenario."""
    return scenario_from_dict(bench_reference().wheatstone_table().to_scenario())


def _with_tolerances(sc, **tolerances):
    """The scenario with the given `Tolerances` fields replaced."""
    return dataclasses.replace(sc, tolerances=dataclasses.replace(sc.tolerances, **tolerances))


def _face_labels(sc, grid_n=200, **tolerances):
    keep = analysis._face_states(_with_tolerances(sc, **tolerances), grid_n)
    return [sc.model.states[i] for i in keep]


def _shared_exit_scenario(alt_exit: list[float]):
    """Two entry edges a, b joining a shared exit c; state alt differs on c only."""
    net = Network(["a", "b", "c"], [["a", "c"], ["b", "c"]])
    fns = {(e, "ok"): CostFunction.affine(1.0, 2.0) for e in "abc"}
    fns |= {("a", "alt"): fns[("a", "ok")], ("b", "alt"): fns[("b", "ok")]}
    fns[("c", "alt")] = CostFunction.polynomial([2.0 + alt_exit[0], 1.0 + alt_exit[1], alt_exit[2]])
    model = CostModel(["a", "b", "c"], ["ok", "alt"], fns, np.eye(3))
    return table_scenario(net, model, "ok", 1.0)


class TestFaceStates:
    """The states the face rule leaves out; when it can prove nothing, it keeps them all."""

    def test_built_ins_drop_e1(self, three_edge, cond2):
        assert _face_labels(three_edge) == _face_labels(cond2) == ["e2", "e3", "none"]

    def test_mass_tolerance_of_one_grid_step_keeps_all(self, three_edge):
        # a node's mass of one grid step is then within the mass tolerance
        assert analysis._MASS_TOL == 1 / 10**9
        everything = list(three_edge.model.states)
        assert _face_labels(three_edge, grid_n=10**9) == everything
        assert _face_labels(three_edge, grid_n=10**9 - 1) == ["e2", "e3", "none"]

    def test_used_tolerance_at_the_route_floor_keeps_all(self, three_edge):
        # two routes and demand 1: some route carries at least 0.5
        assert _face_labels(three_edge, used_edge=0.5) == list(three_edge.model.states)
        assert _face_labels(three_edge, used_edge=0.49) == ["e2", "e3", "none"]

    @pytest.mark.parametrize(
        "alt_exit, kept",
        [
            ([0.0, -0.75, 1.0], ["ok", "alt"]),  # w^2 - 0.75 w: zero at 0.75, inside [0.5, 1]
            ([0.0, 0.75, 1.0], ["ok"]),  # w^2 + 0.75 w: one sign, 0.625 at 0.5
            ([0.0, 1.0, 0.0], ["ok"]),  # w: 0.5 at 0.5, above cost_tol
        ],
    )
    def test_only_one_signed_differences_count(self, alt_exit, kept):
        sc = _shared_exit_scenario(alt_exit)
        assert _face_labels(sc, grid_n=40) == kept
        _assert_matches_full_sweep(sc, 40)

    @pytest.mark.parametrize("cost_tol, kept", [(0.5, ["ok", "alt"]), (0.499, ["ok"])])
    def test_difference_exactly_at_cost_tol_at_the_route_floor(self, cost_tol, kept):
        # alt adds w on the exit: exactly 0.5 at the floor 0.5, which is not above 0.5
        sc = _shared_exit_scenario([0.0, 1.0, 0.0])
        assert _face_labels(sc, grid_n=40, cost_equality=cost_tol) == kept
        _assert_matches_full_sweep(_with_tolerances(sc, cost_equality=cost_tol), 40)

    def test_wheatstone_has_no_cut(self):
        sc = _bench_wheatstone()
        assert _face_labels(sc, grid_n=20) == list(sc.model.states)
        _assert_matches_full_sweep(sc, 6)

    def test_full_sweep_when_nothing_is_dropped(self, three_edge, monkeypatch):
        rows = []
        real = analysis.solve_wardrop_batch

        def counting(network, model, thetas, demand, **kw):
            rows.append(len(thetas))
            return real(network, model, thetas, demand, **kw)

        monkeypatch.setattr(analysis, "solve_wardrop_batch", counting)
        # a used-edge tolerance at the route floor demand / n_routes
        _assert_matches_full_sweep(_with_tolerances(three_edge, used_edge=0.5), 12)
        # one sweep block of the full grid; any later blocks are the bisection's
        assert rows[0] == math.comb(15, 3) and all(n <= 15 for n in rows[1:])


@pytest.mark.parametrize(
    "table", ["three-edge", "three-edge-accurate-prior", "three-edge-cond2"]
    + [f"grid-{rows}x4-g{g}" for rows in (3, 4) for g in range(6)],
)
def test_simulation_settles_in_a_swept_family(table):
    """`run_block` and `enumerate_rest_points`, two independent codes, agree
    on where the dynamics settle: each converged seed's terminal used set is
    a family's, its terminal belief lies within that family's thresholds,
    and the terminal point passes `check_rest_point`. Where a complete-learning
    condition holds, every seed ends at the truth's equilibrium; on a
    series-parallel network, no family costs less than that equilibrium."""
    if table.startswith("grid-"):
        scenario = scenario_from_dict(grid_payload(int(table[5]), 4, int(table[-1])))
    else:
        scenario = load_scenario(table)
    grid_n = 24
    report = enumerate_rest_points(scenario, grid_n)
    families = {f.used: f for f in report.families}
    settled = [t for t in run_block(scenario, range(64)) if t.status == CONVERGED]
    assert settled
    if check_complete_learning_conditions(scenario).any_holds:
        truth = known_state(scenario.model, scenario.true_state)
        want = solve_wardrop(scenario.network, scenario.model, truth, scenario.demand).edge_loads
        # within the load tolerance of the check below (three-edge-cond2: up to 8.7e-5)
        for traj in settled:
            assert np.abs(traj.final_loads - want).max() <= 1e-4, traj.seed
    if is_series_parallel(scenario.network):
        assert compare_average_costs(scenario, report.families).ok
    for traj in settled:
        fam = families[traj.final_used]
        # a refined boundary is exact to the bisection's width, another to a grid step
        tol = analysis._REFINE_TOL if fam.refined else 1 / grid_n
        for state, p in zip(scenario.model.states, traj.final_belief.probs):
            lo, hi = fam.thresholds.get(state, (0.0, 0.0))
            assert lo - tol <= p <= hi + tol, (traj.seed, state)
        # a seed stops once its belief moves less than delta a stage, so its
        # terminal point is a rest point only to the tolerances criterion 4 uses:
        # on three-edge-cond2 the terminal belief keeps up to 4e-4 mass on
        # distinguishable states, and its loads are up to 5e-5 off
        chk = check_rest_point(
            scenario, traj.final_belief, traj.final_loads, load_tol=1e-4, mass_tol=1e-3
        )
        assert chk.ok, (traj.seed, chk.violations)
