"""Gaussian likelihood of observed edge costs and Bayesian belief updates.

All likelihood arithmetic is done in log space. After a few dozen stages the
raw densities underflow, so posteriors are normalized with the usual
subtract-the-max trick and histories are replayed by summing log densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costs import Belief, CostModel
from .errors import BeliefError

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Observation:
    """Realized costs on the edges that carried traffic in one stage.

    `loads` is the full equilibrium edge-load vector; `costs` holds one entry
    per used edge, aligned with `used`.
    """

    used: tuple[str, ...]
    loads: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        used = tuple(str(e) for e in self.used)
        if not used:
            raise BeliefError("observation needs at least one used edge")
        if len(set(used)) != len(used):
            raise BeliefError("duplicate edges in observation")
        loads = np.array(self.loads, dtype=float)
        costs = np.array(self.costs, dtype=float)
        if loads.ndim != 1:
            raise BeliefError("loads must be a vector")
        if costs.shape != (len(used),):
            raise BeliefError(
                f"costs have shape {costs.shape}, expected ({len(used)},)"
            )
        if not np.isfinite(costs).all():
            raise BeliefError("observed costs must be finite")
        loads.setflags(write=False)
        costs.setflags(write=False)
        object.__setattr__(self, "used", used)
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "costs", costs)


def log_likelihood_block(
    model: CostModel, used: tuple[int, ...], loads: np.ndarray, costs: np.ndarray
) -> np.ndarray:
    """Log densities of a block of observations under every state, shape (n, n_states).

    Row i observed `costs[i]` on the edges with indices `used` at the edge
    loads `loads[i]`. The mean under state s is the state-s cost of each used
    edge at its load; the covariance is the noise submatrix on the used
    edges, whitened by the inverse of its Cholesky factor, which the model
    caches once per distinct used set.
    """
    n, m = len(costs), len(used)
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


def bayes_update_block(
    prior: np.ndarray,
    model: CostModel,
    used: tuple[int, ...],
    loads: np.ndarray,
    costs: np.ndarray,
) -> np.ndarray:
    """Posterior rows after one observation each, for rows that used the same edges.

    States with zero prior mass stay at exactly zero; no probability floor is
    applied, so masses may reach numeric zero.
    """
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
    return _normalize(log_prior + log_likelihood_block(model, used, loads, costs))


def _used_indices(model: CostModel, obs: Observation) -> tuple[int, ...]:
    return tuple(model.edge_index(e) for e in obs.used)


def log_likelihoods(model: CostModel, obs: Observation) -> np.ndarray:
    """Log density of the observation under every state, shape (n_states,)."""
    return log_likelihood_block(
        model, _used_indices(model, obs), obs.loads[None, :], obs.costs[None, :]
    )[0]


def bayes_update(theta: Belief, model: CostModel, obs: Observation) -> Belief:
    """Posterior belief after one observation: the block update on one row."""
    if len(theta) != model.n_states:
        raise BeliefError(
            f"belief has {len(theta)} entries, model has {model.n_states} states"
        )
    post = bayes_update_block(
        theta.probs[None, :],
        model,
        _used_indices(model, obs),
        obs.loads[None, :],
        obs.costs[None, :],
    )
    return Belief(post[0])


def replay_posterior(
    theta0: Belief, model: CostModel, history: Sequence[Observation]
) -> Belief:
    """Posterior from the initial belief and a whole observation history.

    Costs in different stages are independent given their edge loads, so the
    joint log density is the per-stage sum and the result coincides with
    folding bayes_update over the history.
    """
    if len(theta0) != model.n_states:
        raise BeliefError(
            f"belief has {len(theta0)} entries, model has {model.n_states} states"
        )
    prior = theta0.probs
    if not history:
        return Belief(prior.copy())
    with np.errstate(divide="ignore"):
        acc = np.log(prior)
    for obs in history:
        acc = acc + log_likelihoods(model, obs)
    return Belief(_normalize(acc[None, :])[0])
