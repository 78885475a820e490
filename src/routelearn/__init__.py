"""Repeated routing games against a public belief over an unknown state.

Travelers repeatedly play the Wardrop equilibrium of the current public
belief; an information system observes loads and noisy costs on the used
edges and keeps the belief updated by Bayes' rule. The package simulates
these dynamics, verifies and enumerates their rest points, and checks the
structural conditions under which learning recovers the known-state
equilibrium.
"""

from .analysis import (
    AverageCostComparison,
    AverageCostEntry,
    ConditionReport,
    RestPointCheck,
    RestPointFamily,
    RestPointReport,
    check_complete_learning_conditions,
    check_rest_point,
    compare_average_costs,
    enumerate_rest_points,
)
from .costs import Belief, CostFunction, CostModel
from .dynamics import (
    CONVERGED,
    MAX_STAGES,
    BatchSummary,
    TerminalCluster,
    Trajectory,
    TrajectorySummary,
    monte_carlo,
    run,
    summarize,
    write_trajectory_csv,
)
from .errors import (
    BeliefError,
    CostError,
    NetworkError,
    RoutelearnError,
    ScenarioError,
    SolverError,
)
from .graph import Network, is_series_parallel
from .scenario import (
    BUILTIN_NAMES,
    ConvergenceRule,
    Scenario,
    Tolerances,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

# What the command line and the README's library example use, and the types
# of their arguments and results. Everything else is imported from its module.
__all__ = [
    "AverageCostComparison",
    "AverageCostEntry",
    "BUILTIN_NAMES",
    "BatchSummary",
    "Belief",
    "BeliefError",
    "CONVERGED",
    "ConditionReport",
    "ConvergenceRule",
    "CostError",
    "CostFunction",
    "CostModel",
    "MAX_STAGES",
    "Network",
    "NetworkError",
    "RestPointCheck",
    "RestPointFamily",
    "RestPointReport",
    "RoutelearnError",
    "Scenario",
    "ScenarioError",
    "SolverError",
    "TerminalCluster",
    "Tolerances",
    "Trajectory",
    "TrajectorySummary",
    "check_complete_learning_conditions",
    "check_rest_point",
    "compare_average_costs",
    "enumerate_rest_points",
    "is_series_parallel",
    "load_scenario",
    "monte_carlo",
    "run",
    "scenario_from_dict",
    "scenario_to_dict",
    "summarize",
    "write_trajectory_csv",
]
