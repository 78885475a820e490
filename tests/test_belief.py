from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from routelearn import (
    Belief,
    BeliefError,
    CostFunction,
    CostModel,
)
from routelearn.belief import bayes_update, log_likelihoods, replay_posterior
from routelearn.equilibrium import solve_wardrop
from routelearn.graph import used_edges

from oracles import (
    ReferenceObservation,
    random_spd,
    reference_bayes_update,
    reference_log_likelihoods,
)


def make_model(intercepts_by_state, sigma=None, slope=1.0):
    """Single-edge-per-column model: edges E0..E{m-1}, affine costs."""
    n_states = len(intercepts_by_state)
    m = len(intercepts_by_state[0])
    edges = [f"E{i}" for i in range(m)]
    states = [f"s{j}" for j in range(n_states)]
    fns = {
        (edges[i], states[j]): CostFunction.affine(slope, intercepts_by_state[j][i])
        for i in range(m)
        for j in range(n_states)
    }
    return CostModel(edges, states, fns, np.eye(m) if sigma is None else sigma)


def one_row_log_likelihoods(model, used, loads, costs) -> np.ndarray:
    """Log densities of one observation: the block function on a block of one row."""
    return log_likelihoods(model, tuple(used), np.array([loads], float), np.array([costs], float))[0]


def one_row_update(theta: Belief, model, used, loads, costs) -> Belief:
    """Posterior after one observation: the block update on a block of one row."""
    post = bayes_update(
        theta.probs[None, :], model, tuple(used), np.array([loads], float), np.array([costs], float)
    )
    return Belief(post[0])


class TestObservation:
    def test_requires_nonempty_used(self):
        model = make_model([(5.0, 5.0)])
        with pytest.raises(BeliefError, match="one or more distinct edges"):
            log_likelihoods(model, (), np.zeros((1, 2)), np.zeros((1, 0)))
        with pytest.raises(BeliefError, match="one or more distinct edges"):
            bayes_update(np.ones((1, 1)), model, (), np.zeros((1, 2)), np.zeros((1, 0)))

    def test_rejects_duplicate_used_edges(self):
        model = make_model([(5.0, 5.0)])
        with pytest.raises(BeliefError, match="one or more distinct edges"):
            log_likelihoods(model, (1, 1), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_costs_align_with_used(self):
        model = make_model([(5.0,)])
        with pytest.raises(BeliefError, match="and costs .* are not"):
            log_likelihoods(model, (0,), np.zeros((1, 1)), np.array([[1.0, 2.0]]))

    def test_loads_cover_every_edge(self):
        model = make_model([(5.0, 5.0)])
        with pytest.raises(BeliefError, match="and costs .* are not"):
            log_likelihoods(model, (0,), np.zeros((1, 1)), np.ones((1, 1)))
        with pytest.raises(BeliefError, match="and costs .* are not"):
            log_likelihoods(model, (0,), np.zeros((2, 2)), np.ones((1, 1)))

    def test_used_edges_are_edges_of_the_model(self):
        model = make_model([(5.0, 5.0)])
        with pytest.raises(BeliefError, match="one or more distinct edges"):
            log_likelihoods(model, (2,), np.zeros((1, 2)), np.ones((1, 1)))

    def test_prior_width_is_the_state_count(self):
        model = make_model([(5.0,), (6.0,)])
        with pytest.raises(BeliefError, match="prior has shape"):
            bayes_update(np.full((1, 3), 1 / 3), model, (0,), np.zeros((1, 1)), np.ones((1, 1)))
        with pytest.raises(BeliefError, match="prior has shape"):
            bayes_update(np.full((2, 2), 0.5), model, (0,), np.zeros((1, 1)), np.ones((1, 1)))
        with pytest.raises(BeliefError, match="3 entries"):
            replay_posterior(
                Belief.uniform(3), model, np.ones((1, 1), bool), np.zeros((1, 1)), np.ones((1, 1))
            )


class TestLogGaussianDensity:
    def test_at_the_mean_identity_covariance(self):
        model = make_model([(5.0, 5.0, 5.0)])
        w = np.array([1.0, 1.0, 1.0])
        got = one_row_log_likelihoods(model, (0, 1, 2), w, [6.0, 6.0, 6.0])[0]
        assert got == pytest.approx(-1.5 * np.log(2 * np.pi))

    def test_scalar_residual_two(self):
        model = make_model([(5.0,)])
        assert one_row_log_likelihoods(model, (0,), [0.0], [7.0])[0] == pytest.approx(
            -2.0 - 0.5 * np.log(2 * np.pi)
        )

    def test_two_edges_opposite_residuals(self):
        model = make_model([(5.0, 5.0)])
        assert one_row_log_likelihoods(model, (0, 1), np.zeros(2), [6.0, 4.0])[0] == pytest.approx(
            -1.0 - np.log(2 * np.pi)
        )

    def test_matches_scipy_with_correlated_noise(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            sigma = random_spd(rng, m)
            intercepts = [tuple(rng.uniform(0, 10, size=m)) for _ in range(2)]
            model = make_model(intercepts, sigma=sigma)
            w = rng.uniform(0, 2, size=m)
            c = rng.uniform(0, 15, size=m)
            for j in range(2):
                mean = np.array([w[i] + intercepts[j][i] for i in range(m)])
                want = multivariate_normal(mean=mean, cov=sigma).logpdf(c)
                assert one_row_log_likelihoods(model, range(m), w, c)[j] == pytest.approx(want)

    def test_submatrix_restriction(self):
        rng = np.random.default_rng(23)
        sigma = random_spd(rng, 3)
        model = make_model([(1.0, 2.0, 3.0)], sigma=sigma)
        got = one_row_log_likelihoods(model, (0, 2), [1.0, 0.0, 1.0], [2.5, 4.5])
        sub = sigma[np.ix_([0, 2], [0, 2])]
        want = multivariate_normal(mean=[2.0, 4.0], cov=sub).logpdf([2.5, 4.5])
        assert got[0] == pytest.approx(want)


class TestBayesUpdate:
    def test_identical_costs_leave_belief_unchanged(self):
        model = make_model([(5.0, 5.0), (5.0, 5.0), (5.0, 5.0)])
        theta = Belief([0.2, 0.5, 0.3])
        post = one_row_update(theta, model, (0, 1), [1.0, 1.0], [3.0, 9.0])
        assert np.allclose(post.probs, theta.probs, atol=1e-15)

    def test_two_state_example(self):
        # means 5 and 10, unit variance, observation at 5: odds ratio e^{12.5}
        model = make_model([(5.0,), (10.0,)])
        theta = Belief([0.5, 0.5])
        post = one_row_update(theta, model, (0,), [0.0], [5.0])
        expect_small = 1.0 / (1.0 + np.exp(12.5))
        assert post.probs[1] == pytest.approx(expect_small, rel=1e-12)
        assert post.probs[0] == pytest.approx(1.0 - expect_small, rel=1e-12)
        # independent oracle: normalize the two scalar densities directly
        dens = np.array(
            [norm(5.0, 1.0).pdf(5.0), norm(10.0, 1.0).pdf(5.0)]
        )
        assert np.allclose(post.probs, dens / dens.sum(), rtol=1e-10, atol=0.0)

    def test_zero_prior_stays_zero(self):
        model = make_model([(5.0,), (6.0,), (7.0,)])
        theta = Belief([0.5, 0.0, 0.5])
        rng = np.random.default_rng(1)
        for _ in range(10):
            post = one_row_update(theta, model, (0,), [0.0], [float(rng.uniform(0, 12))])
            assert post.probs[1] == 0.0
            theta = post

    def test_state_underflowed_to_zero_stays_zero(self):
        # a state 995 noise units from the observed cost gets the weight
        # exp(-495,012.5), exactly 0.0; no later evidence can bring it back,
        # and every posterior stays a valid belief
        model = make_model([(5.0,), (1000.0,)])
        post = Belief([0.5, 0.5])
        for cost in (5.0, 1000.0, 600.0):
            post = one_row_update(post, model, (0,), [0.0], [cost])
            assert post.probs.tolist() == [1.0, 0.0]

    def test_posterior_is_valid_belief_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n_states = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            intercepts = [tuple(rng.uniform(0, 10, size=m)) for _ in range(n_states)]
            model = make_model(intercepts, sigma=random_spd(rng, m))
            p = rng.dirichlet(np.ones(n_states))
            theta = Belief(p / p.sum())
            loads = rng.uniform(0, 2, size=m)
            costs = rng.uniform(-5, 20, size=m)
            post = one_row_update(theta, model, range(m), loads, costs)
            assert (post.probs >= 0).all()
            assert post.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert set(np.flatnonzero(post.probs > 0)) <= set(np.flatnonzero(theta.probs > 0))

    def test_martingale_under_prior_predictive(self, three_edge):
        # resample: state from the belief, then costs from that state's law;
        # the average posterior must come back to the belief itself
        sc = three_edge
        theta = Belief.uniform(4)
        eq = solve_wardrop(sc.network, sc.model, theta, 1.0)
        idx = tuple(np.flatnonzero(used_edges(sc.network, eq.edge_loads, sc.used_edge_tol)).tolist())
        means = sc.model.cost_matrix(eq.edge_loads, idx)
        chol = np.linalg.cholesky(sc.model.sigma[np.ix_(idx, idx)])
        n = 20_000
        rng = np.random.default_rng(101)
        states = rng.choice(4, size=n, p=theta.probs)
        draws = means[states] + rng.standard_normal((n, len(idx))) @ chol.T
        post = bayes_update(
            np.tile(theta.probs, (n, 1)), sc.model, idx, np.tile(eq.edge_loads, (n, 1)), draws
        )
        assert np.max(np.abs(post.sum(axis=0) / n - theta.probs)) <= 5.0 / np.sqrt(n)

    def test_mean_posterior_drifts_to_truth_under_true_state(self, three_edge):
        # secondary reading: sampling costs from the true state only, the
        # average posterior should not lose mass on the truth
        sc = three_edge
        theta = Belief.uniform(4)
        eq = solve_wardrop(sc.network, sc.model, theta, 1.0)
        idx = tuple(np.flatnonzero(used_edges(sc.network, eq.edge_loads, sc.used_edge_tol)).tolist())
        truth = sc.model.state_index(sc.true_state)
        true_mean = sc.model.cost_matrix(eq.edge_loads, idx)[truth]
        chol = np.linalg.cholesky(sc.model.sigma[np.ix_(idx, idx)])
        n = 5_000
        rng = np.random.default_rng(7)
        draws = true_mean + rng.standard_normal((n, len(idx))) @ chol.T
        post = bayes_update(
            np.tile(theta.probs, (n, 1)), sc.model, idx, np.tile(eq.edge_loads, (n, 1)), draws
        )
        assert post[:, truth].sum() / n >= theta.probs[truth]


def random_history(rng, model, length):
    """A history of `length` stages as a trajectory's arrays: used-edge mask,
    loads, and costs that are NaN off the used edges."""
    m = model.n_edges
    used = np.zeros((length, m), dtype=bool)
    loads = np.zeros((length, m))
    costs = np.full((length, m), np.nan)
    for t in range(length):
        k = int(rng.integers(1, m + 1))
        idx = sorted(rng.choice(m, size=k, replace=False))
        used[t, idx] = True
        loads[t, idx] = rng.uniform(0.1, 2.0, size=k)
        costs[t, idx] = rng.uniform(0, 12, size=k)
    return used, loads, costs


def fold_updates(theta: Belief, model, used, loads, costs) -> Belief:
    """The belief after one-row updates over the stages, in stage order."""
    for mask, w, c in zip(used, loads, costs):
        theta = one_row_update(theta, model, np.flatnonzero(mask).tolist(), w, c[mask])
    return theta


class TestReplayPosterior:
    def test_empty_history_returns_prior(self):
        model = make_model([(5.0,), (6.0,)])
        theta = Belief([0.3, 0.7])
        empty = np.zeros((0, 1))
        replayed = replay_posterior(theta, model, empty.astype(bool), empty, empty)
        assert np.array_equal(replayed.probs, theta.probs)

    def test_single_observation_equals_one_update(self):
        model = make_model([(5.0,), (6.0,)])
        theta = Belief([0.3, 0.7])
        batch = replay_posterior(theta, model, np.ones((1, 1), bool), [[1.0]], [[5.5]])
        fold = one_row_update(theta, model, (0,), [1.0], [5.5])
        assert np.allclose(batch.probs, fold.probs, atol=1e-15)

    def test_matches_incremental_fold_on_long_histories(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n_states = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            intercepts = [tuple(rng.uniform(0, 10, size=m)) for _ in range(n_states)]
            model = make_model(intercepts, sigma=random_spd(rng, m))
            p = rng.dirichlet(np.ones(n_states))
            theta0 = Belief(p / p.sum())
            history = random_history(rng, model, 50)
            batch = replay_posterior(theta0, model, *history)
            theta = fold_updates(theta0, model, *history)
            assert np.max(np.abs(batch.probs - theta.probs)) <= 1e-10


class TestBlockLikelihood:
    def _random_block(self, rng, sigma):
        m = sigma.shape[0]
        intercepts = [tuple(rng.uniform(0, 10, size=m)) for _ in range(3)]
        model = make_model(intercepts, sigma=sigma)
        loads = rng.uniform(0, 2, size=(25, m))
        costs = rng.uniform(0, 15, size=(25, m))
        return model, loads, costs

    def test_rows_equal_one_row_calls_and_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            model, loads, costs = self._random_block(rng, random_spd(rng, m))
            used = tuple(range(m))
            block = log_likelihoods(model, used, loads, costs)
            for i in range(len(costs)):
                one = one_row_log_likelihoods(model, used, loads[i], costs[i])
                assert np.array_equal(block[i], one)
                ref = reference_log_likelihoods(
                    model, ReferenceObservation(model.edges, loads[i], costs[i])
                )
                assert np.allclose(block[i], ref, rtol=1e-12, atol=1e-12)

    def test_identity_noise_matches_triangular_solve_bit_for_bit(self):
        rng = np.random.default_rng(32)
        model, loads, costs = self._random_block(rng, np.eye(3))
        prior = rng.dirichlet(np.ones(3), size=len(costs))
        prior[::3, 1] = 0.0
        prior /= prior.sum(axis=1, keepdims=True)
        block = bayes_update(prior, model, (0, 2), loads, costs[:, [0, 2]])
        for i in range(len(costs)):
            obs = ReferenceObservation(("E0", "E2"), loads[i], costs[i, [0, 2]])
            ref = reference_bayes_update(Belief(prior[i]), model, obs)
            assert np.array_equal(block[i], ref.probs)

    def test_error_names_the_row(self):
        model = make_model([(0.0,), (1.0,)])
        prior = np.full((3, 2), 0.5)
        costs = np.array([[1.0], [np.inf], [2.0]])
        with pytest.raises(BeliefError, match="non-finite log likelihood") as info:
            bayes_update(prior, model, (0,), np.ones((3, 1)), costs)
        assert info.value.row == 1
