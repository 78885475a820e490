from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import routelearn

ROOT = Path(__file__).resolve().parents[1]

# What the command line and the README's library example use, and the types
# of their arguments and results.
PUBLIC = {
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
}


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the package itself needs numpy alone
    src = str(Path(routelearn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, routelearn; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_public_names_are_pinned():
    assert len(routelearn.__all__) == len(set(routelearn.__all__))
    assert set(routelearn.__all__) == PUBLIC
    for name in routelearn.__all__:
        assert getattr(routelearn, name) is not None


def _tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of TARGETS in bench/tracing.py, read with
    ast so that no benchmark code runs."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_names_the_benchmark_binds_resolve():
    # the benchmark's tracer rebinds these by name, and its grid timing
    # reads the chunk generator and its default chunk size
    targets = _tracer_targets()
    assert ("routelearn.dynamics", "NoiseSampler.sample") in targets
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
    analysis = importlib.import_module("routelearn.analysis")
    assert callable(analysis._simplex_grid_chunks)
    chunk = inspect.signature(analysis.enumerate_rest_points).parameters["chunk_size"].default
    assert type(chunk) is int and chunk > 0
    assert next(analysis._simplex_grid_chunks(3, 2, chunk)).shape == (6, 3)
