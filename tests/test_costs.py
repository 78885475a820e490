from __future__ import annotations

import numpy as np
import pytest

from routelearn import (
    Belief,
    BeliefError,
    CostError,
    CostFunction,
    CostModel,
)
from routelearn.costs import polyint_ascending, polyval_ascending
from routelearn.equilibrium import solve_wardrop
from routelearn.graph import Network

from oracles import reference_cost_matrix


def tiny_model(functions, edges=("e",), states=("s0", "s1")):
    """One-edge or few-edge model from a {(edge, state): fn} mapping."""
    sigma = np.eye(len(edges))
    return CostModel(edges, states, functions, sigma)


def state_cost(model, edge, state, load):
    """Cost of one edge in one state, through the cost matrix the likelihood uses."""
    i = model.edges.index(edge)
    loads = np.zeros(model.n_edges)
    loads[i] = load
    return float(model.cost_matrix(loads, [i])[model.state_index(state), 0])


def mixed_row(model, theta, edge):
    """Belief-weighted coefficients of one edge, as the solvers mix them."""
    return model.mixed_coefficients_batch(theta.probs[None, :])[0, model.edges.index(edge)]


def expected_cost(model, theta, edge, load):
    return float(polyval_ascending(mixed_row(model, theta, edge), load))


def beckmann_term(model, theta, edge, load):
    """The edge's term of the equilibrium potential: its expected cost integrated from 0."""
    return float(polyint_ascending(mixed_row(model, theta, edge), load))


@pytest.fixture
def mixed_model():
    fns = {
        ("e", "s0"): CostFunction.affine(1.0, 5.0),
        ("e", "s1"): CostFunction.affine(1.0, 10.0),
    }
    return tiny_model(fns)


class TestCostFunction:
    def test_affine_intercept(self):
        fn = CostFunction.affine(2.0, 5.0)
        assert fn.intercept == 5.0
        assert fn.coefficients == (5.0, 2.0)
        assert fn.form == "affine"

    def test_affine_value(self):
        assert polyval_ascending(CostFunction.affine(2.0, 5.0).coefficients, 1.5) == 8.0

    def test_polynomial_value_and_form(self):
        fn = CostFunction.polynomial([1.0, 0.0, 2.0])
        assert fn.form == "polynomial"
        assert polyval_ascending(fn.coefficients, 2.0) == 1.0 + 8.0

    def test_rejects_negative_coefficients(self):
        with pytest.raises(CostError):
            CostFunction.polynomial([1.0, -0.5])

    def test_rejects_degree_zero(self):
        with pytest.raises(CostError):
            CostFunction.polynomial([3.0])

    def test_integral_of_affine(self):
        fn = CostFunction.affine(2.0, 3.0)
        assert polyint_ascending(fn.coefficients, 2.0) == pytest.approx(2.0 * 4.0 / 2.0 + 3.0 * 2.0)


class TestBelief:
    def test_uniform(self):
        b = Belief.uniform(4)
        assert np.array_equal(b.probs, np.full(4, 0.25))

    def test_point_mass_support(self):
        b = Belief.point_mass(3, 1)
        assert b.probs.tolist() == [0.0, 1.0, 0.0]

    def test_rejects_negative(self):
        with pytest.raises(BeliefError):
            Belief([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(BeliefError):
            Belief([0.5, 0.6])

    def test_read_only(self):
        b = Belief.uniform(2)
        with pytest.raises(ValueError):
            b.probs[0] = 0.9


class TestEdgeCost:
    def test_compromised_intercept(self):
        fns = {("e", "s"): CostFunction.affine(2.0, 5.0)}
        model = tiny_model(fns, states=("s",))
        assert state_cost(model, "e", "s", 0.0) == 5.0

    def test_normal_at_unit_load(self):
        fns = {("e", "s"): CostFunction.affine(1.0, 5.0)}
        model = tiny_model(fns, states=("s",))
        assert state_cost(model, "e", "s", 1.0) == 6.0

    def test_unknown_state(self, mixed_model):
        with pytest.raises(CostError):
            state_cost(mixed_model, "e", "zz", 0.0)


class TestExpectedEdgeCost:
    def test_point_mass_reduces_to_edge_cost(self, mixed_model):
        theta = Belief.point_mass(2, 1)
        for w in (0.0, 0.3, 2.0):
            assert expected_cost(mixed_model, theta, "e", w) == state_cost(
                mixed_model, "e", "s1", w
            )

    def test_linear_in_compromise_probability(self, mixed_model):
        # normal w+5, compromised w+10: expected intercept is 5 + 5x
        for x in (0.0, 0.2, 0.5, 1.0):
            theta = Belief([1.0 - x, x])
            assert expected_cost(mixed_model, theta, "e", 0.0) == pytest.approx(
                5.0 + 5.0 * x
            )

    def test_threshold_value_matches(self, mixed_model):
        assert expected_cost(mixed_model, Belief([0.8, 0.2]), "e", 0.0) == pytest.approx(6.0)

    def test_identical_components(self):
        fns = {
            ("e", "s0"): CostFunction.affine(1.0, 3.0),
            ("e", "s1"): CostFunction.affine(1.0, 3.0),
        }
        model = tiny_model(fns)
        assert expected_cost(model, Belief.uniform(2), "e", 0.7) == pytest.approx(3.7)

    def test_mixture_linearity_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n_states = int(rng.integers(1, 5))
            fns = {
                ("e", f"s{j}"): CostFunction.affine(
                    0.1 + rng.uniform(0, 3), rng.uniform(0, 10)
                )
                for j in range(n_states)
            }
            model = tiny_model(fns, states=tuple(f"s{j}" for j in range(n_states)))
            p = rng.dirichlet(np.ones(n_states))
            theta = Belief(p / p.sum())
            w = float(rng.uniform(0, 4))
            direct = sum(
                theta.probs[j] * state_cost(model, "e", f"s{j}", w)
                for j in range(n_states)
            )
            assert expected_cost(model, theta, "e", w) == pytest.approx(
                direct, rel=1e-14, abs=1e-12
            )

    def test_slope_lower_bound_randomized(self):
        # increasing the load by d raises the expected cost by at least alpha*d
        rng = np.random.default_rng(9)
        alpha = 0.25
        fns = {
            ("e", f"s{j}"): CostFunction.affine(alpha + rng.uniform(0, 2), rng.uniform(0, 5))
            for j in range(3)
        }
        model = tiny_model(fns, states=("s0", "s1", "s2"))
        for _ in range(40):
            p = rng.dirichlet(np.ones(3))
            theta = Belief(p / p.sum())
            w1, w2 = sorted(rng.uniform(0, 3, size=2))
            c1 = expected_cost(model, theta, "e", w1)
            c2 = expected_cost(model, theta, "e", w2)
            assert c1 + alpha * (w2 - w1) <= c2 + 1e-12


class TestExpectedRouteCost:
    def test_sum_over_member_edges(self, three_edge):
        # the solvers sum member-edge costs into route costs through the incidence
        theta = Belief.point_mass(4, 3)  # all mass on the uncompromised state
        w = np.array([1.0, 0.0, 1.0])
        net = three_edge.network
        edge_costs = [
            expected_cost(three_edge.model, theta, e, x) for e, x in zip(net.edge_ids, w)
        ]
        route_costs = net.incidence.T @ edge_costs
        assert route_costs[1] == pytest.approx(12.0)

    def test_singleton_route(self):
        from routelearn import Network

        net = Network(["a"], [["a"]])
        fns = {("a", "s"): CostFunction.affine(1.0, 2.0)}
        model = CostModel(["a"], ["s"], fns, np.eye(1))
        theta = Belief.point_mass(1, 0)
        route_costs = net.incidence.T @ [expected_cost(model, theta, "a", 0.5)]
        assert route_costs.tolist() == [2.5]


class TestPolynomialHelpers:
    def test_degree_major_layout_gives_the_same_bits(self):
        # the equilibrium loop keeps coefficients degree-major (axis=0)
        rng = np.random.default_rng(5)
        c = rng.uniform(0.0, 2.0, size=(3, 4, 5))  # (rows, edges, degree + 1)
        x = rng.uniform(0.0, 3.0, size=(3, 4))
        major = np.moveaxis(c, -1, 0).copy()
        assert np.array_equal(polyval_ascending(major, x, axis=0), polyval_ascending(c, x))
        assert np.array_equal(polyint_ascending(major, x, axis=0), polyint_ascending(c, x))

    def test_integral_term_by_term(self):
        # 1 + 2x + 3x^2 integrates to x + x^2 + x^3
        assert polyint_ascending([1.0, 2.0, 3.0], 2.0) == 14.0
        assert polyint_ascending([[4.0], [1.0]], [0.5, 2.0]).tolist() == [2.0, 2.0]


class TestBeckmannIntegral:
    def test_affine_point_mass(self):
        fns = {("e", "s"): CostFunction.affine(2.0, 3.0)}
        model = tiny_model(fns, states=("s",))
        theta = Belief.point_mass(1, 0)
        w = 1.5
        assert beckmann_term(model, theta, "e", w) == pytest.approx(
            2.0 * w**2 / 2.0 + 3.0 * w
        )

    def test_zero_load(self, mixed_model):
        assert beckmann_term(mixed_model, Belief.uniform(2), "e", 0.0) == 0.0

    def test_mixture_of_affines(self, mixed_model):
        # weights 0.8/0.2 on intercepts 5/10 gives the affine z + 6
        theta = Belief([0.8, 0.2])
        assert beckmann_term(mixed_model, theta, "e", 1.0) == pytest.approx(6.5)

    def test_derivative_matches_expected_cost(self):
        rng = np.random.default_rng(13)
        fns = {
            ("e", "s0"): CostFunction.polynomial([1.0, 0.5, 0.25]),
            ("e", "s1"): CostFunction.affine(2.0, 4.0),
        }
        model = tiny_model(fns)
        h = 1e-6
        for _ in range(30):
            p = rng.dirichlet(np.ones(2))
            theta = Belief(p / p.sum())
            w = float(rng.uniform(0.1, 3.0))
            fd = (
                beckmann_term(model, theta, "e", w + h)
                - beckmann_term(model, theta, "e", w - h)
            ) / (2 * h)
            assert fd == pytest.approx(
                expected_cost(model, theta, "e", w), rel=1e-6
            )


class TestSlopeBound:
    """A table below the slope bound constructs; `ensure_slope_bound` names its
    entries edge by edge, and the solver rejects it."""

    def test_all_slopes_pass(self):
        fns = {("e", "s"): CostFunction.affine(1.0, 0.0)}
        CostModel(("e",), ("s",), fns, np.eye(1), alpha=0.5).ensure_slope_bound()

    def test_zero_slope_fails_with_entry(self):
        fns = {
            ("e", "s0"): CostFunction.affine(0.0, 5.0),
            ("e", "s1"): CostFunction.affine(1.0, 5.0),
        }
        model = CostModel(("e",), ("s0", "s1"), fns, np.eye(1), alpha=1e-3)
        with pytest.raises(CostError) as exc:
            model.ensure_slope_bound()
        assert str(exc.value) == "minimum-slope check failed (alpha=0.001) on: (e, s0)"

    def test_quadratic_without_linear_term_fails(self):
        # derivative of 2w^2 is 4w, which vanishes at zero load
        fns = {("e", "s"): CostFunction.polynomial([0.0, 0.0, 2.0])}
        model = CostModel(("e",), ("s",), fns, np.eye(1), alpha=0.1)
        with pytest.raises(CostError, match=r"\(alpha=0\.1\) on: \(e, s\)$"):
            model.ensure_slope_bound()

    def test_entries_in_edge_major_order_and_solver_rejects(self):
        slopes = {("b", "s0"): 0.0, ("a", "s1"): 0.5, ("a", "s0"): 0.25, ("b", "s1"): 1.0}
        fns = {key: CostFunction.affine(slope, 1.0) for key, slope in slopes.items()}
        model = CostModel(("a", "b"), ("s0", "s1"), fns, np.eye(2), alpha=0.75)
        with pytest.raises(CostError, match=r"on: \(a, s0\), \(a, s1\), \(b, s0\)$"):
            model.ensure_slope_bound()
        network = Network(["a", "b"], [["a"], ["b"]])
        with pytest.raises(CostError, match="minimum-slope check failed"):
            solve_wardrop(network, model, Belief.uniform(2), 1.0)


class TestCostModelValidation:
    def test_incomplete_table_rejected(self):
        fns = {("e", "s0"): CostFunction.affine(1.0, 1.0)}
        with pytest.raises(CostError):
            CostModel(["e"], ["s0", "s1"], fns, np.eye(1))

    def test_non_spd_sigma_rejected(self):
        fns = {
            ("a", "s"): CostFunction.affine(1.0, 1.0),
            ("b", "s"): CostFunction.affine(1.0, 1.0),
        }
        with pytest.raises(CostError):
            CostModel(["a", "b"], ["s"], fns, [[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_sigma_rejected(self):
        fns = {
            ("a", "s"): CostFunction.affine(1.0, 1.0),
            ("b", "s"): CostFunction.affine(1.0, 1.0),
        }
        with pytest.raises(CostError):
            CostModel(["a", "b"], ["s"], fns, [[1.0, 0.5], [0.0, 1.0]])


class TestCostMatrixCache:
    @pytest.fixture(params=["affine", "polynomial"])
    def model(self, request):
        rng = np.random.default_rng(12)
        edges, states = ("a", "b", "c"), ("s0", "s1", "s2", "s3")
        if request.param == "affine":
            table = {
                (e, s): CostFunction.affine(*rng.uniform(0.1, 3.0, 2)) for e in edges for s in states
            }
        else:  # mixed degrees, so lower-degree entries are padded with zeros
            table = {
                (e, s): CostFunction.polynomial(rng.uniform(0.1, 3.0, rng.integers(2, 6)))
                for e in edges
                for s in states
            }
        return CostModel(edges, states, table, np.eye(3))

    @pytest.mark.parametrize("idx", [(0,), (0, 2), (2, 1), (0, 1, 2)])
    @pytest.mark.parametrize("shape", [(3,), (6, 3)], ids=["1-D", "2-D"])
    def test_first_and_later_calls_equal_scalar_horner(self, model, idx, shape):
        loads = np.random.default_rng(len(idx)).uniform(0.0, 2.0, shape)
        want = reference_cost_matrix(model, loads, idx)
        first = model.cost_matrix(loads, idx)
        again = model.cost_matrix(loads, list(idx))  # same key from a list
        assert first.shape == shape[:-1] + (model.n_states, len(idx))
        assert np.array_equal(first, want) and np.array_equal(again, want)
        assert np.array_equal(model.cost_matrix(loads, np.array(idx)), want)

    @pytest.mark.parametrize("idx", [(0,), (0, 2), (2, 1), (0, 1, 2)])
    @pytest.mark.parametrize("shape", [(3,), (6, 3)], ids=["1-D", "2-D"])
    def test_costs_keep_the_legacy_memory_layout(self, model, idx, shape):
        # check_rest_point's `theta.probs @ per_state` sums in an order that
        # depends on the layout of the costs, so its bits move if the layout
        # does; the costs must keep the strides of the swapaxes/moveaxis
        # evaluation they once had
        loads = np.random.default_rng(len(idx)).uniform(0.0, 2.0, shape)
        w = loads[..., list(idx)]
        legacy = polyval_ascending(np.swapaxes(model._coeffs[list(idx)], 0, 1), w[..., None, :])
        got = model.cost_matrix(loads, idx)
        assert got.strides == legacy.strides
        assert got.tobytes() == legacy.tobytes()

    def test_cached_slab_is_read_only(self, model):
        model.cost_matrix(np.ones(3), (2, 0))
        slab = model._slab_cache[(2, 0)]
        assert slab.shape == (model._coeffs.shape[2], model.n_states, 2)
        assert not slab.flags.writeable
        with pytest.raises(ValueError):
            slab[0, 0, 0] = 1.0
        assert len(model._slab_cache) == 1


class TestMixedCoefficients:
    """The in-place accumulation over states gives the bits of the einsum it replaced."""

    @pytest.mark.parametrize("n_states", range(1, 13))
    @pytest.mark.parametrize("degree", range(1, 6))
    def test_equals_einsum_bit_for_bit(self, n_states, degree):
        rng = np.random.default_rng(100 * n_states + degree)
        edges, states = ("a", "b", "c"), [f"s{j}" for j in range(n_states)]
        table = {}
        for e in edges:
            for s in states:
                c = rng.uniform(0.0, 3.0, degree + 1) * 10.0 ** rng.integers(-3, 4, degree + 1)
                c[rng.random(degree + 1) < 0.2] = 0.0
                c[1] = max(c[1], 1e-3)  # the slope bound
                table[(e, s)] = CostFunction.polynomial(c)
        model = CostModel(edges, states, table, np.eye(3))
        for n in (1, 25, 20301):
            probs = rng.dirichlet(np.ones(n_states), size=n)
            probs[rng.random(probs.shape) < 0.2] = 0.0  # zero masses
            probs[rng.random(probs.shape) < 0.1] = 5e-324  # subnormal masses
            probs[rng.random(probs.shape) < 0.1] = 2.2e-308
            want = np.einsum("esc,ns->nec", model._coeffs, probs)
            got = model.mixed_coefficients_batch(probs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
