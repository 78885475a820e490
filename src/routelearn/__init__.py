"""Repeated routing games against a public belief over an unknown state.

Travelers repeatedly play the Wardrop equilibrium of the current public
belief; an information system observes loads and noisy costs on the used
edges and keeps the belief updated by Bayes' rule. The package simulates
these dynamics, verifies and enumerates their rest points, and checks the
structural conditions under which learning recovers the known-state
equilibrium.

Public names load from their module on first use (PEP 562), so
`import routelearn` followed by `load_scenario` loads neither the solver,
the stage loop nor the rest-point sweep, and each command of the command
line loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# What the command line and the README's library example use, and the types
# of their arguments and results, by the module that defines them.
# Everything else is imported from its module.
_EXPORTS = {
    "analysis": (
        "AverageCostComparison",
        "AverageCostEntry",
        "ConditionReport",
        "RestPointCheck",
        "RestPointFamily",
        "RestPointReport",
        "check_complete_learning_conditions",
        "check_rest_point",
        "compare_average_costs",
        "enumerate_rest_points",
    ),
    "costs": ("Belief", "CostFunction", "CostModel"),
    "dynamics": (
        "CONVERGED",
        "MAX_STAGES",
        "BatchSummary",
        "TerminalCluster",
        "Trajectory",
        "TrajectorySummary",
        "monte_carlo",
        "run",
        "summarize",
        "write_trajectory_csv",
    ),
    "errors": (
        "BeliefError",
        "CostError",
        "NetworkError",
        "RoutelearnError",
        "ScenarioError",
        "SolverError",
    ),
    "graph": ("Network", "is_series_parallel"),
    "scenario": (
        "BUILTIN_NAMES",
        "ConvergenceRule",
        "Scenario",
        "Tolerances",
        "load_scenario",
        "scenario_from_dict",
        "scenario_to_dict",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules an eager `__init__` used to import; `cli` was never one.
_SUBMODULES = frozenset(
    {"analysis", "belief", "costs", "dynamics", "equilibrium", "errors", "graph", "scenario"}
)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name or submodule, imported on first use and then cached here."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
