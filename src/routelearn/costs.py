"""State-dependent edge cost functions, beliefs, and cost-model validation.

Cost functions are polynomials with nonnegative ascending-power coefficients
(affine is the degree-1 special case). That restriction gives closed-form
integrals for the equilibrium potential and makes the minimum-slope check
decidable from the coefficients alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import BeliefError, CostError

DEFAULT_ALPHA = 1e-3


def polyval_ascending(coeffs, x, axis: int = -1) -> np.ndarray:
    """Horner evaluation of ascending-power coefficients at x.

    The coefficients run along `axis` of `coeffs`, and `x` must broadcast
    against one coefficient slice. The equilibrium loop keeps its stacks
    degree-major (axis=0), so that every slice it multiplies is contiguous.
    """
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    if axis % c.ndim:
        c = np.moveaxis(c, axis, 0)
    if len(c) == 1:
        return np.zeros(np.broadcast(c[0], x).shape) + c[0]
    res = c[-1] * x + c[-2]
    for k in range(len(c) - 3, -1, -1):
        res = res * x + c[k]
    return res


def polyint_coefficients(coeffs, axis: int = -1) -> np.ndarray:
    """Coefficients c_k / (k + 1): x times their polynomial is the integral from 0 to x."""
    c = np.asarray(coeffs, dtype=float)
    shape = [1] * c.ndim
    shape[axis] = c.shape[axis]
    return c / np.arange(1, c.shape[axis] + 1).reshape(shape)


def polyint_ascending(coeffs, x, axis: int = -1) -> np.ndarray:
    """Exact integral from 0 to x of the polynomial with ascending coefficients."""
    return polyval_ascending(polyint_coefficients(coeffs, axis), x, axis) * x


@dataclass(frozen=True)
class CostFunction:
    """Edge travel-time function of load, with nonnegative coefficients.

    coefficients[i] multiplies load**i; the intercept is the free-flow time.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) < 2:
            raise CostError("cost function needs degree at least 1")
        if any(not np.isfinite(c) for c in coeffs):
            raise CostError("cost coefficients must be finite")
        if any(c < 0 for c in coeffs):
            raise CostError("cost coefficients must be nonnegative")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def affine(cls, slope: float, intercept: float) -> "CostFunction":
        return cls((intercept, slope))

    @classmethod
    def polynomial(cls, coefficients: Sequence[float]) -> "CostFunction":
        return cls(tuple(coefficients))

    @property
    def form(self) -> str:
        return "affine" if len(self.coefficients) == 2 else "polynomial"

    @property
    def intercept(self) -> float:
        return self.coefficients[0]


class Belief:
    """Probability vector over the state set, immutable once built."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise BeliefError("belief must be a nonempty vector")
        if not np.isfinite(p).all():
            raise BeliefError("belief entries must be finite")
        if (p < 0).any():
            raise BeliefError("belief entries must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise BeliefError(f"belief entries sum to {p.sum()!r}, not 1")
        p.setflags(write=False)
        self.probs = p

    @classmethod
    def uniform(cls, n_states: int) -> "Belief":
        return cls(np.full(n_states, 1.0 / n_states))

    @classmethod
    def point_mass(cls, n_states: int, index: int) -> "Belief":
        p = np.zeros(n_states)
        p[index] = 1.0
        return cls(p)

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        return f"Belief({np.array2string(self.probs, precision=6)})"


class CostModel:
    """Complete cost table over (edge, state) plus the observation noise.

    `sigma` is the covariance of the per-stage Gaussian noise on realized
    edge costs; it must be symmetric positive definite so that every
    submatrix taken on a used-edge set stays invertible.

    The minimum-slope bound asks every cost function's derivative to be at
    least `alpha` on (0, D]. With nonnegative coefficients the derivative
    does not fall with the load, so its infimum is the linear coefficient.
    A table that breaks the bound still constructs, and the entries that
    break it are recorded; `ensure_slope_bound` raises on them, and the
    solvers and the scenario loader call it.
    """

    def __init__(
        self,
        edges: Sequence[str],
        states: Sequence[str],
        table: Mapping[tuple[str, str], CostFunction],
        sigma,
        alpha: float = DEFAULT_ALPHA,
    ):
        self.edges = tuple(str(e) for e in edges)
        self.states = tuple(str(s) for s in states)
        if len(self.edges) != len(set(self.edges)):
            raise CostError("duplicate edge identifiers")
        if len(self.states) != len(set(self.states)):
            raise CostError("duplicate state labels")
        if not alpha > 0:
            raise CostError("alpha must be positive")
        self.alpha = float(alpha)

        missing = [
            (e, s) for e in self.edges for s in self.states if (e, s) not in table
        ]
        if missing:
            raise CostError(f"cost table incomplete, missing entries: {missing[:4]}")
        self.table = {
            (e, s): table[(e, s)] for e in self.edges for s in self.states
        }
        for key, fn in self.table.items():
            if not isinstance(fn, CostFunction):
                raise CostError(f"table entry {key} is not a CostFunction")

        sig = np.array(sigma, dtype=float)
        n = len(self.edges)
        if sig.shape != (n, n):
            raise CostError(f"sigma has shape {sig.shape}, expected ({n}, {n})")
        if not np.isfinite(sig).all():
            raise CostError("sigma entries must be finite")
        if np.max(np.abs(sig - sig.T)) > 1e-12 * max(1.0, np.max(np.abs(sig))):
            raise CostError("sigma must be symmetric")
        try:
            np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            raise CostError("sigma must be positive definite") from None
        sig.setflags(write=False)
        self.sigma = sig

        max_len = max(len(fn.coefficients) for fn in self.table.values())
        coeffs = np.zeros((len(self.edges), len(self.states), max_len))
        for i, e in enumerate(self.edges):
            for j, s in enumerate(self.states):
                fn = self.table[(e, s)]
                coeffs[i, j, : len(fn.coefficients)] = fn.coefficients
        coeffs.setflags(write=False)
        self._coeffs = coeffs
        self._slope_violations = tuple(
            (self.edges[i], self.states[j]) for i, j in np.argwhere(coeffs[:, :, 1] < self.alpha)
        )

        self._state_index = {s: i for i, s in enumerate(self.states)}
        self._whitener_cache: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}
        self._slab_cache: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, state: str) -> int:
        try:
            return self._state_index[state]
        except KeyError:
            raise CostError(f"unknown state {state!r}") from None

    def mixed_coefficients_batch(self, prob_rows: np.ndarray) -> np.ndarray:
        """Mixed coefficients for many beliefs at once, shape (n, E, degree + 1).

        Row i is the sum over states s of prob_rows[i, s] times state s's
        (E, C) coefficients, added in place in state order. That is the
        order and rounding of np.einsum("esc,ns->nec"), so the bits are the
        same, without its cost and with no temporary larger than the result.
        """
        p = np.asarray(prob_rows, dtype=float)
        # a contiguous (E, C) slice lets each outer product run as one flat
        # loop per row; on the strided view it takes twice as long
        by_state = [self._coeffs[:, s].copy() for s in range(self.n_states)]
        out = np.multiply.outer(p[:, 0], by_state[0])
        term = np.empty_like(out)
        for s in range(1, len(by_state)):
            out += np.multiply.outer(p[:, s], by_state[s], out=term)
        return out

    def state_coefficients(self, state: str) -> np.ndarray:
        return self._coeffs[:, self.state_index(state), :]

    def cost_matrix(self, loads, edge_indices: Sequence[int]) -> np.ndarray:
        """Per-state cost values on the selected edges.

        Loads of shape (..., n_edges) give costs of shape (..., S, m). Each
        edge selection's coefficients are gathered once and cached, read-only,
        as a degree-major (C, S, m) view of the (m, S, C) gather, so that a
        repeated selection, such as the used edges of a settled trajectory,
        costs no gather or axis move. The view keeps the strides the costs
        have always had, so the results keep their memory layout too.
        """
        key = tuple(int(i) for i in edge_indices)
        slab = self._slab_cache.get(key)
        if slab is None:
            sub = self._coeffs[list(key)]  # (m, S, C)
            sub.setflags(write=False)
            slab = self._slab_cache[key] = sub.transpose(2, 1, 0)
        w = np.asarray(loads, dtype=float)[..., key]
        return polyval_ascending(slab, w[..., None, :], axis=0)

    def sigma_whitener(self, edge_indices: tuple[int, ...]) -> tuple[np.ndarray, float]:
        """Cached inverse of the Cholesky factor of a sigma submatrix, and its log-determinant.

        The inverse maps a residual with that covariance to independent
        standard normals; keeping it avoids a triangular solve per update.
        """
        key = tuple(edge_indices)
        hit = self._whitener_cache.get(key)
        if hit is not None:
            return hit
        sub = self.sigma[np.ix_(key, key)]
        try:
            chol = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            raise CostError(
                f"noise covariance submatrix on edges {key} is not positive definite"
            ) from None
        logdet = 2.0 * float(np.log(np.diag(chol)).sum())
        linv = np.linalg.inv(chol)
        linv.setflags(write=False)
        self._whitener_cache[key] = (linv, logdet)
        return linv, logdet

    def ensure_slope_bound(self) -> None:
        """Raise CostError naming, edge by edge, every entry whose slope is below alpha."""
        if self._slope_violations:
            entries = ", ".join(f"({e}, {s})" for e, s in self._slope_violations)
            raise CostError(f"minimum-slope check failed (alpha={self.alpha}) on: {entries}")

    def __repr__(self) -> str:
        return (
            f"CostModel(edges={len(self.edges)}, states={len(self.states)}, "
            f"alpha={self.alpha})"
        )
