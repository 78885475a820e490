"""Gaussian likelihood of observed edge costs and Bayesian belief updates.

Functions take a block of observations that used the same edges, one per
row. All likelihood arithmetic is done in log space. After a few dozen
stages the raw densities underflow, so posteriors are normalized with the
usual subtract-the-max trick and histories are replayed by summing log
densities.
"""

from __future__ import annotations

import numpy as np

from .costs import Belief, CostModel
from .errors import BeliefError

_LOG_2PI = float(np.log(2.0 * np.pi))


def log_likelihoods(
    model: CostModel, used: tuple[int, ...], loads: np.ndarray, costs: np.ndarray
) -> np.ndarray:
    """Log densities of a block of observations under every state, shape (n, n_states).

    Row i observed `costs[i]` on the edges with indices `used` at the edge
    loads `loads[i]`: `loads` is (n, n_edges) and `costs` (n, len(used)).
    The mean under state s is the state-s cost of each used edge at its
    load; the covariance is the noise submatrix on the used edges, whitened
    by the inverse of its Cholesky factor, which the model caches once per
    distinct used set.
    """
    loads = np.asarray(loads, dtype=float)
    costs = np.asarray(costs, dtype=float)
    n, m, n_edges = len(costs), len(used), model.n_edges
    if not m or len(set(used)) != m or not 0 <= min(used) <= max(used) < n_edges:
        raise BeliefError(f"used edges {used} are not one or more distinct edges of {n_edges}")
    if loads.shape != (n, n_edges) or costs.shape != (n, m):
        shapes = f"loads {loads.shape} and costs {costs.shape}"
        raise BeliefError(f"{shapes} are not ({n}, {n_edges}) and ({n}, {m})")
    linv, logdet = model.sigma_whitener(used)
    means = model.cost_matrix(loads, used)  # (n, S, m)
    resid = costs[:, None, :] - means
    # whitened residuals, one matrix-vector product per row so that a row's
    # bits do not depend on the block size, then transposed to (m, n * S) in
    # Fortran order: the layout the quadratic form has always summed over
    z = np.matvec(linv, resid.reshape(-1, m)).T
    quad = np.einsum("ms,ms->s", z, z).reshape(n, -1)
    out = -0.5 * quad - 0.5 * m * _LOG_2PI - 0.5 * logdet
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise BeliefError("non-finite log likelihood; check the cost table").at_row(
            np.argmax(bad)
        )
    return out


def _normalize(log_post: np.ndarray) -> np.ndarray:
    """Posterior rows from unnormalized log masses that are -inf off the support.

    Each row's largest weight is exactly 1, since the prior has some mass
    and the log likelihoods are finite, so the total cannot vanish.
    """
    weights = np.exp(log_post - log_post.max(axis=1, keepdims=True))
    out = weights / weights.sum(axis=1)[:, None]
    sums = out.sum(axis=1)
    off = np.abs(sums - 1.0) > 1e-12
    if off.any():
        i = int(np.argmax(off))
        raise BeliefError(f"belief entries sum to {sums[i]!r}, not 1").at_row(i)
    return out


def bayes_update(
    prior: np.ndarray,
    model: CostModel,
    used: tuple[int, ...],
    loads: np.ndarray,
    costs: np.ndarray,
) -> np.ndarray:
    """Posterior rows after one observation each, for rows that used the same edges.

    Row i of `prior` observed row i of `loads` and `costs` (see
    `log_likelihoods`). States with zero prior mass stay at exactly zero;
    no probability floor is applied, so masses may reach numeric zero.
    """
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (len(costs), model.n_states):
        raise BeliefError(f"prior has shape {prior.shape}, not ({len(costs)}, {model.n_states})")
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
    return _normalize(log_prior + log_likelihoods(model, used, loads, costs))


def replay_posterior(
    theta0: Belief, model: CostModel, used: np.ndarray, loads: np.ndarray, costs: np.ndarray
) -> Belief:
    """Posterior from the initial belief and a whole history of stages.

    Row k of the trajectory's arrays is stage k + 1: its used-edge mask,
    its loads on every edge and its realized costs, read on the used edges.
    Costs in different stages are independent given their edge loads, so
    the joint log density is the per-stage sum, added in stage order, and
    the result coincides with folding bayes_update over the history.
    """
    if len(theta0) != model.n_states:
        raise BeliefError(f"belief has {len(theta0)} entries, model has {model.n_states} states")
    if not len(used):
        return Belief(theta0.probs.copy())
    with np.errstate(divide="ignore"):
        acc = np.log(theta0.probs)
    for mask, w, c in zip(np.asarray(used, dtype=bool), np.asarray(loads), np.asarray(costs)):
        idx = tuple(np.flatnonzero(mask).tolist())
        acc = acc + log_likelihoods(model, idx, w[None, :], c[None, idx])[0]
    return Belief(_normalize(acc[None, :])[0])
