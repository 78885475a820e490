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
from routelearn.belief import (
    Observation,
    bayes_update,
    bayes_update_block,
    log_likelihood_block,
    log_likelihoods,
    replay_posterior,
)
from routelearn.equilibrium import solve_wardrop
from routelearn.graph import used_edges

from oracles import random_spd, reference_bayes_update, reference_log_likelihoods


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


class TestObservation:
    def test_requires_nonempty_used(self):
        with pytest.raises(BeliefError):
            Observation(used=(), loads=np.zeros(2), costs=np.array([]))

    def test_costs_align_with_used(self):
        with pytest.raises(BeliefError):
            Observation(used=("a",), loads=np.zeros(1), costs=np.array([1.0, 2.0]))

    def test_arrays_read_only(self):
        obs = Observation(used=("a",), loads=np.array([1.0]), costs=np.array([2.0]))
        with pytest.raises(ValueError):
            obs.costs[0] = 0.0


class TestLogGaussianDensity:
    def test_at_the_mean_identity_covariance(self):
        model = make_model([(5.0, 5.0, 5.0)])
        w = np.array([1.0, 1.0, 1.0])
        obs = Observation(("E0", "E1", "E2"), w, np.array([6.0, 6.0, 6.0]))
        got = log_likelihoods(model, obs)[0]
        assert got == pytest.approx(-1.5 * np.log(2 * np.pi))

    def test_scalar_residual_two(self):
        model = make_model([(5.0,)])
        obs = Observation(("E0",), np.array([0.0]), np.array([7.0]))
        assert log_likelihoods(model, obs)[0] == pytest.approx(
            -2.0 - 0.5 * np.log(2 * np.pi)
        )

    def test_two_edges_opposite_residuals(self):
        model = make_model([(5.0, 5.0)])
        obs = Observation(("E0", "E1"), np.zeros(2), np.array([6.0, 4.0]))
        assert log_likelihoods(model, obs)[0] == pytest.approx(
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
            obs = Observation(tuple(f"E{i}" for i in range(m)), w, c)
            for j in range(2):
                mean = np.array([w[i] + intercepts[j][i] for i in range(m)])
                want = multivariate_normal(mean=mean, cov=sigma).logpdf(c)
                assert log_likelihoods(model, obs)[j] == pytest.approx(want)

    def test_submatrix_restriction(self):
        rng = np.random.default_rng(23)
        sigma = random_spd(rng, 3)
        model = make_model([(1.0, 2.0, 3.0)], sigma=sigma)
        obs = Observation(("E0", "E2"), np.array([1.0, 0.0, 1.0]), np.array([2.5, 4.5]))
        sub = sigma[np.ix_([0, 2], [0, 2])]
        want = multivariate_normal(mean=[2.0, 4.0], cov=sub).logpdf([2.5, 4.5])
        assert log_likelihoods(model, obs)[0] == pytest.approx(want)


class TestBayesUpdate:
    def test_identical_costs_leave_belief_unchanged(self):
        model = make_model([(5.0, 5.0), (5.0, 5.0), (5.0, 5.0)])
        theta = Belief([0.2, 0.5, 0.3])
        obs = Observation(("E0", "E1"), np.array([1.0, 1.0]), np.array([3.0, 9.0]))
        post = bayes_update(theta, model, obs)
        assert np.allclose(post.probs, theta.probs, atol=1e-15)

    def test_two_state_example(self):
        # means 5 and 10, unit variance, observation at 5: odds ratio e^{12.5}
        model = make_model([(5.0,), (10.0,)])
        theta = Belief([0.5, 0.5])
        obs = Observation(("E0",), np.array([0.0]), np.array([5.0]))
        post = bayes_update(theta, model, obs)
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
            obs = Observation(
                ("E0",), np.array([0.0]), np.array([float(rng.uniform(0, 12))])
            )
            post = bayes_update(theta, model, obs)
            assert post.probs[1] == 0.0
            theta = post

    def test_state_underflowed_to_zero_stays_zero(self):
        # a state 995 noise units from the observed cost gets the weight
        # exp(-495,012.5), exactly 0.0; no later evidence can bring it back,
        # and every posterior stays a valid belief
        model = make_model([(5.0,), (1000.0,)])
        post = Belief([0.5, 0.5])
        for cost in (5.0, 1000.0, 600.0):
            obs = Observation(("E0",), np.array([0.0]), np.array([cost]))
            post = bayes_update(post, model, obs)
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
            obs = Observation(
                tuple(f"E{i}" for i in range(m)),
                rng.uniform(0, 2, size=m),
                rng.uniform(-5, 20, size=m),
            )
            post = bayes_update(theta, model, obs)
            assert (post.probs >= 0).all()
            assert post.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert set(np.flatnonzero(post.probs > 0)) <= set(np.flatnonzero(theta.probs > 0))

    def test_martingale_under_prior_predictive(self, three_edge):
        # resample: state from the belief, then costs from that state's law;
        # the average posterior must come back to the belief itself
        sc = three_edge
        theta = Belief.uniform(4)
        eq = solve_wardrop(sc.network, sc.model, theta, 1.0)
        used = sorted(
            used_edges(sc.network, eq.edge_loads, sc.used_edge_tol),
            key=sc.model.edge_index,
        )
        idx = [sc.model.edge_index(e) for e in used]
        means = sc.model.cost_matrix(eq.edge_loads, idx)
        chol = np.linalg.cholesky(sc.model.sigma[np.ix_(idx, idx)])
        n = 20_000
        rng = np.random.default_rng(101)
        states = rng.choice(4, size=n, p=theta.probs)
        draws = means[states] + rng.standard_normal((n, len(idx))) @ chol.T
        acc = np.zeros(4)
        for k in range(n):
            obs = Observation(tuple(used), eq.edge_loads, draws[k])
            acc += bayes_update(theta, sc.model, obs).probs
        assert np.max(np.abs(acc / n - theta.probs)) <= 5.0 / np.sqrt(n)

    def test_mean_posterior_drifts_to_truth_under_true_state(self, three_edge):
        # secondary reading: sampling costs from the true state only, the
        # average posterior should not lose mass on the truth
        sc = three_edge
        theta = Belief.uniform(4)
        eq = solve_wardrop(sc.network, sc.model, theta, 1.0)
        used = sorted(
            used_edges(sc.network, eq.edge_loads, sc.used_edge_tol),
            key=sc.model.edge_index,
        )
        idx = [sc.model.edge_index(e) for e in used]
        truth = sc.model.state_index(sc.true_state)
        true_mean = sc.model.cost_matrix(eq.edge_loads, idx)[truth]
        chol = np.linalg.cholesky(sc.model.sigma[np.ix_(idx, idx)])
        n = 5_000
        rng = np.random.default_rng(7)
        draws = true_mean + rng.standard_normal((n, len(idx))) @ chol.T
        acc = np.zeros(4)
        for k in range(n):
            obs = Observation(tuple(used), eq.edge_loads, draws[k])
            acc += bayes_update(theta, sc.model, obs).probs
        assert acc[truth] / n >= theta.probs[truth]


class TestReplayPosterior:
    def _random_history(self, rng, model, length):
        m = model.n_edges
        history = []
        for _ in range(length):
            k = int(rng.integers(1, m + 1))
            idx = sorted(rng.choice(m, size=k, replace=False))
            loads = np.zeros(m)
            loads[idx] = rng.uniform(0.1, 2.0, size=k)
            costs = rng.uniform(0, 12, size=k)
            history.append(
                Observation(tuple(model.edges[i] for i in idx), loads, costs)
            )
        return history

    def test_empty_history_returns_prior(self):
        model = make_model([(5.0,), (6.0,)])
        theta = Belief([0.3, 0.7])
        assert np.array_equal(replay_posterior(theta, model, []).probs, theta.probs)

    def test_single_observation_equals_one_update(self):
        model = make_model([(5.0,), (6.0,)])
        theta = Belief([0.3, 0.7])
        obs = Observation(("E0",), np.array([1.0]), np.array([5.5]))
        batch = replay_posterior(theta, model, [obs])
        fold = bayes_update(theta, model, obs)
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
            history = self._random_history(rng, model, 50)
            batch = replay_posterior(theta0, model, history)
            theta = theta0
            for obs in history:
                theta = bayes_update(theta, model, obs)
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
            block = log_likelihood_block(model, used, loads, costs)
            for i in range(len(costs)):
                obs = Observation(model.edges, loads[i], costs[i])
                assert np.array_equal(block[i], log_likelihoods(model, obs))
                ref = reference_log_likelihoods(model, obs)
                assert np.allclose(block[i], ref, rtol=1e-12, atol=1e-12)

    def test_identity_noise_matches_triangular_solve_bit_for_bit(self):
        rng = np.random.default_rng(32)
        model, loads, costs = self._random_block(rng, np.eye(3))
        prior = rng.dirichlet(np.ones(3), size=len(costs))
        prior[::3, 1] = 0.0
        prior /= prior.sum(axis=1, keepdims=True)
        block = bayes_update_block(prior, model, (0, 2), loads, costs[:, [0, 2]])
        for i in range(len(costs)):
            obs = Observation(("E0", "E2"), loads[i], costs[i, [0, 2]])
            ref = reference_bayes_update(Belief(prior[i]), model, obs)
            assert np.array_equal(block[i], ref.probs)

    def test_error_names_the_row(self):
        model = make_model([(0.0,), (1.0,)])
        prior = np.full((3, 2), 0.5)
        costs = np.array([[1.0], [np.inf], [2.0]])
        with pytest.raises(BeliefError, match="non-finite log likelihood") as info:
            bayes_update_block(prior, model, (0,), np.ones((3, 1)), costs)
        assert info.value.row == 1
