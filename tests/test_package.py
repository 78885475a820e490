from __future__ import annotations

import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
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


def _loaded_after(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code` with `argv`."""
    src = str(Path(routelearn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = code + "\nimport sys; print(); print(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(out.stdout.splitlines()[-1].split())


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test-only dependency; the package itself needs numpy alone.
    # Each entry point loads only what it runs: loading a scenario needs no
    # solver, a one-worker batch no process pool and no sweep, and a sweep
    # no stage loop.
    loaded = _loaded_after('import routelearn; routelearn.load_scenario("three-edge")')
    assert {m for m in loaded if m.split(".")[0] == "routelearn"} == {
        "routelearn",
        "routelearn.costs",
        "routelearn.errors",
        "routelearn.graph",
        "routelearn.scenario",
    }
    assert "scipy" not in loaded and "concurrent.futures" not in loaded

    main = "import sys; from routelearn import cli; assert cli.main(sys.argv[1:]) == 0"
    common = ["--scenario", "three-edge", "--out-dir", str(tmp_path)]
    loaded = _loaded_after(main, "batch", *common, "--seeds", "0..3", "--workers", "1")
    assert "routelearn.dynamics" in loaded
    assert not loaded & {"scipy", "concurrent.futures.process", "routelearn.analysis"}
    loaded = _loaded_after(main, "enumerate", *common, "--grid-n", "10")
    assert "routelearn.analysis" in loaded
    assert not loaded & {"scipy", "concurrent.futures", "routelearn.dynamics"}

    # names still resolve as if the package root imported every module,
    # which never included the command line
    loaded = _loaded_after(
        "import routelearn; routelearn.equilibrium.solve_wardrop_batch; "
        "assert not hasattr(routelearn, 'cli')"
    )
    assert "routelearn.equilibrium" in loaded and "routelearn.cli" not in loaded
    star: dict = {}
    exec("from routelearn import *", star)
    assert set(routelearn.__all__) <= set(star)
    assert set(routelearn.__all__) <= set(dir(routelearn))
    assert not hasattr(routelearn, "no_such_name")


def test_public_names_are_pinned():
    assert len(routelearn.__all__) == len(set(routelearn.__all__))
    assert set(routelearn.__all__) == PUBLIC
    for name in routelearn.__all__:
        assert getattr(routelearn, name) is not None


def _bench_assignment(module: str, name: str) -> ast.expr:
    """The expression bench/<module>.py assigns to `name` at its top level,
    read with ast so that no benchmark code runs."""
    tree = ast.parse((ROOT / "bench" / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return node.value
    raise AssertionError(f"bench/{module}.py defines no {name}")


def _tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of TARGETS in bench/tracing.py."""
    entries = _bench_assignment("tracing", "TARGETS").elts
    return [(entry.elts[0].value, entry.elts[1].value) for entry in entries]


def test_the_benchmark_checks_thresholds_to_the_sweeps_bisection_width():
    # bench/reference.py holds the refined e2 threshold to REFINE_TOL
    analysis = importlib.import_module("routelearn.analysis")
    assert ast.literal_eval(_bench_assignment("reference", "REFINE_TOL")) == analysis._REFINE_TOL


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


def test_the_traced_layers_run(tmp_path, monkeypatch):
    # a traced name that no command calls reads 0 in every per-layer metric;
    # wrap each target by identity in every routelearn module, as the tracer
    # does, and run each command on a small three-edge case
    for name in ("analysis", "belief", "cli", "dynamics", "equilibrium", "scenario"):
        importlib.import_module(f"routelearn.{name}")
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "routelearn"]
    calls: Counter = Counter()

    def counting(target, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[target] += 1
            return fn(*args, **kwargs)

        return counted

    targets = _tracer_targets()
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, method, counting((module_name, attr), cls.__dict__[method]))
            continue
        original = getattr(owner, attr)
        wrapper = counting((module_name, attr), original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)

    cli = importlib.import_module("routelearn.cli")
    common = ["--scenario", "three-edge", "--out-dir", str(tmp_path)]
    for command in (
        ["run", "--seed", "0"],
        ["batch", "--seeds", "0..3", "--workers", "1", "--save-trajectories"],
        ["enumerate", "--grid-n", "10"],
        ["check", "--grid-n", "5"],
    ):
        assert cli.main([command[0], *common, *command[1:]]) == 0
    assert len(targets) == 19
    assert [t for t in targets if not calls[t]] == []
