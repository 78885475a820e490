"""Exception types shared across the package."""

from __future__ import annotations


class RoutelearnError(Exception):
    """Base class for all package-specific errors.

    A computation over a block of rows sets `row` to the index of the row
    that failed, so that the caller can say what that row stands for.
    """

    row: int | None = None

    def at_row(self, row: int) -> "RoutelearnError":
        self.row = int(row)
        return self


class NetworkError(RoutelearnError, ValueError):
    """Invalid network structure or mismatched route/edge data."""


class CostError(RoutelearnError, ValueError):
    """Invalid cost function, cost table, or noise covariance."""


class BeliefError(RoutelearnError, ValueError):
    """Vector is not a probability distribution over the states."""


class ScenarioError(RoutelearnError, ValueError):
    """Scenario file or dictionary failed validation."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class SolverError(RoutelearnError, RuntimeError):
    """Equilibrium computation failed.

    When raised for non-convergence, `best` carries the row's result, its
    start flows and their certificates, so callers can inspect it.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
