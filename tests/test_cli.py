from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import math
import operator
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routelearn import SolverError, load_scenario, scenario_to_dict
from routelearn.cli import main
from routelearn.scenario import _builtin_payloads

from oracles import wheatstone_drain_table


def read_json(path):
    return json.loads(path.read_text())


class TestRun:
    def test_writes_all_outputs(self, tmp_path):
        code = main(
            [
                "run",
                "--scenario",
                "three-edge",
                "--seed",
                "7",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        csv_path = tmp_path / "three-edge_seed7_trajectory.csv"
        summary = read_json(tmp_path / "three-edge_seed7_summary.json")
        assert csv_path.exists()
        assert summary["status"] == "converged"
        assert summary["tool"]["name"] == "routelearn"
        assert summary["convergence"]["window"] == 50
        assert summary["tolerances"]["equilibrium"] == 1e-8
        assert summary["rest_point"]["ok"] is True

    def test_emitted_scenario_reproduces_csv_byte_for_byte(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", "--scenario", "three-edge", "--seed", "3", "--out-dir", str(out1)]) == 0
        emitted = out1 / "three-edge_seed3_scenario.json"
        assert main(["run", "--scenario", str(emitted), "--seed", "3", "--out-dir", str(out2)]) == 0
        b1 = (out1 / "three-edge_seed3_trajectory.csv").read_bytes()
        b2 = (out2 / "three-edge_seed3_trajectory.csv").read_bytes()
        assert b1 == b2

    def test_override_flags_respected(self, tmp_path):
        code = main(
            [
                "run",
                "--scenario",
                "three-edge",
                "--seed",
                "0",
                "--max-stages",
                "20",
                "--window",
                "10",
                "--delta",
                "0.5",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = read_json(tmp_path / "three-edge_seed0_summary.json")
        assert summary["stages"] <= 20


class TestOverrides:
    @pytest.mark.parametrize(
        "command", [["run", "--seed", "0"], ["batch", "--seeds", "0..1"]], ids=["run", "batch"]
    )
    def test_zero_tol_is_rejected(self, tmp_path, capsys, command):
        argv = [command[0], "--scenario", "three-edge", *command[1:], "--tol", "0"]
        code = main(argv + ["--out-dir", str(tmp_path)])
        assert code == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_are_rejected(self, tmp_path, capsys, workers):
        argv = ["batch", "--scenario", "three-edge", "--seeds", "0..1", "--workers", workers]
        code = main(argv + ["--max-stages", "20", "--window", "5", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key", [("", "demand"), ("convergence", "max_stages"), ("convergence", "window")]
    )
    def test_infinite_scenario_numbers_exit_2(self, tmp_path, capsys, section, key):
        # JSON's Infinity once gave exit 0 (demand) or an OverflowError traceback (max_stages)
        payload = scenario_to_dict(load_scenario("three-edge"))
        (payload[section] if section else payload)[key] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(payload))
        argv = ["enumerate", "--scenario", str(path), "--grid-n", "2", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        field = f"{section}.{key}" if section else key
        assert f"validation error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["run"], ["enumerate", "--grid-n", "3"], ["check", "--grid-n", "3"]],
        ids=["run", "enumerate", "check"],
    )
    @pytest.mark.parametrize(
        "routes, field",
        [
            ([["e1"], 3], "network.routes[1]"),
            ([None, ["e2"], ["e3"]], "network.routes[0]"),
            ([["e1"], ["e2"], True], "network.routes[2]"),
            ([1, 2], "network.routes[0]"),
            ([["e2", "e1"], {"e3": 0, "e1": 1}], "network.routes[1]"),
        ],
        ids=["number", "null", "true", "numbers", "object"],
    )
    def test_routes_that_are_not_lists_exit_2(self, tmp_path, capsys, command, routes, field):
        # each but the object once raised a TypeError out of main; the object
        # was read as its keys
        payload = scenario_to_dict(load_scenario("three-edge"))
        payload["network"]["routes"] = routes
        path = tmp_path / "routes.json"
        path.write_text(json.dumps(payload))
        argv = [command[0], "--scenario", str(path), *command[1:], "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"validation error: {field}: expected list")

    @pytest.mark.parametrize("seeds", ["x", "0..x", "1,y", "5..3", ",,", "1,1"])
    def test_bad_seeds_name_the_field(self, tmp_path, capsys, seeds):
        argv = ["batch", "--scenario", "three-edge", "--seeds", seeds]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "validation error: seeds:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["run", "--seed", "0"], ["batch", "--seeds", "0..1"]], ids=["run", "batch"]
    )
    def test_nan_delta_is_rejected(self, tmp_path, capsys, command):
        argv = [command[0], "--scenario", "three-edge", *command[1:], "--delta", "nan"]
        code = main(argv + ["--max-stages", "60", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "validation error: convergence.delta:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["run", "--seed", "0"], ["batch", "--seeds", "0..1"]], ids=["run", "batch"]
    )
    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--delta", "inf", "convergence.delta"),
            ("--delta", "1e400", "convergence.delta"),
            ("--delta", "0", "convergence.delta"),
            ("--tol", "inf", "tolerances.equilibrium"),
            ("--window", "0", "convergence.window"),
            ("--max-stages", "10", "convergence.max_stages"),
        ],
    )
    def test_bad_overrides_name_the_field(self, tmp_path, capsys, command, flag, value, field):
        # the flags pass the checks a scenario file's values pass
        argv = [command[0], "--scenario", "three-edge", *command[1:], flag, value]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert f"validation error: {field}:" in capsys.readouterr().err
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["run", "--seed", "-1"], "seed"),
            (["batch", "--seeds=-3..-1"], "seeds"),
            (["batch", "--seeds=0,-2"], "seeds"),
        ],
    )
    def test_negative_seeds_name_the_field(self, tmp_path, capsys, argv, field):
        argv = [*argv, "--scenario", "three-edge", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {field}: expected") and "non-negative" in err

    def test_run_checks_rest_point_with_scenario_cost_equality(self, tmp_path):
        # every cost gap in three-edge is below 100, so with that cost
        # equality no state is distinguishable and no mass is residual
        payload = scenario_to_dict(load_scenario("three-edge"))
        payload["tolerances"]["cost_equality"] = 100.0
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps(payload))
        short = ["--seed", "0", "--max-stages", "3", "--window", "1"]
        residual = {}
        for name, scenario in (("builtin", "three-edge"), ("loose", str(loose))):
            out = tmp_path / name
            assert main(["run", "--scenario", scenario, *short, "--out-dir", str(out)]) == 0
            summary = read_json(out / "three-edge_seed0_summary.json")
            residual[name] = summary["rest_point"]["residual_mass"]
        assert residual["builtin"] > 0.0
        assert residual["loose"] == 0.0


class TestOverridesRecorded:
    """Override flags replace the scenario's values, so the outputs record what ran."""

    FLAGS = ["--max-stages", "40", "--window", "10", "--delta", "0.01", "--tol", "1e-9"]
    RULE = {"max_stages": 40, "window": 10, "delta": 0.01}

    def test_run_summary_and_emitted_scenario_replay(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["run", "--scenario", "three-edge", "--seed", "0", *self.FLAGS]
        assert main(argv + ["--out-dir", str(out1)]) == 0
        summary = read_json(out1 / "three-edge_seed0_summary.json")
        assert summary["convergence"] == self.RULE
        assert summary["tolerances"]["equilibrium"] == 1e-9
        emitted = out1 / "three-edge_seed0_scenario.json"
        scenario = read_json(emitted)
        assert scenario["convergence"] == self.RULE
        assert scenario["tolerances"]["equilibrium"] == 1e-9
        # the emitted file alone, with no flags, replays the run
        replay = ["run", "--scenario", str(emitted), "--seed", "0", "--out-dir", str(out2)]
        assert main(replay) == 0
        csv = "three-edge_seed0_trajectory.csv"
        assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes()
        assert read_json(out2 / "three-edge_seed0_summary.json") == summary

    def test_batch_summary(self, tmp_path):
        argv = ["batch", "--scenario", "three-edge", "--seeds", "0..3", *self.FLAGS]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "three-edge_batch.json")
        assert payload["convergence"] == self.RULE
        assert payload["tolerances"]["equilibrium"] == 1e-9
        assert max(s["stages"] for s in payload["per_seed"]) <= 40


class TestBatch:
    def test_aggregate_json(self, tmp_path):
        code = main(
            [
                "batch",
                "--scenario",
                "three-edge",
                "--seeds",
                "0..4",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = read_json(tmp_path / "three-edge_batch.json")
        assert payload["seeds"] == [0, 1, 2, 3, 4]
        assert payload["n_converged"] == 5
        assert len(payload["per_seed"]) == 5
        assert sum(c["count"] for c in payload["clusters"]) == 5

    def test_seed_list_syntax(self, tmp_path):
        code = main(
            [
                "batch",
                "--scenario",
                "three-edge",
                "--seeds",
                "2,5",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = read_json(tmp_path / "three-edge_batch.json")
        assert payload["seeds"] == [2, 5]

    def test_save_trajectories(self, tmp_path):
        code = main(
            [
                "batch",
                "--scenario",
                "three-edge",
                "--seeds",
                "0..1",
                "--save-trajectories",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "three-edge_seed0_trajectory.csv").exists()
        assert (tmp_path / "three-edge_seed1_trajectory.csv").exists()


class TestEnumerate:
    def test_rest_point_report(self, tmp_path):
        code = main(
            [
                "enumerate",
                "--scenario",
                "three-edge",
                "--grid-n",
                "50",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = read_json(tmp_path / "three-edge_rest_points.json")
        assert len(payload["families"]) == 2
        partial = next(f for f in payload["families"] if f["used"] == ["e1", "e3"])
        assert partial["thresholds"]["e2"][0] == pytest.approx(0.2, abs=1e-4)
        assert payload["average_cost_comparison"]["applicable"] is True
        assert payload["average_cost_comparison"]["ok"] is True


class TestCheck:
    def test_check_report(self, tmp_path):
        code = main(
            [
                "check",
                "--scenario",
                "three-edge-cond2",
                "--grid-n",
                "25",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = read_json(tmp_path / "three-edge-cond2_check.json")
        assert payload["series_parallel"] is True
        conds = payload["complete_learning_conditions"]
        assert conds["state_independent_free_flow"] is True
        assert conds["any_holds"] is True


class TestCheckTolerances:
    def test_condition_3_applies_the_stamped_used_edge_tolerance(self, tmp_path):
        # state e1's known-state loads are (1, 0.5, 0.5): above the default
        # tolerance every edge is used, at 0.6 only e1 is
        payload = scenario_to_dict(load_scenario("three-edge"))
        payload["tolerances"]["used_edge"] = 0.6
        path = tmp_path / "used-edge.json"
        path.write_text(json.dumps(payload))
        argv = ["check", "--scenario", str(path), "--grid-n", "20", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        out = read_json(tmp_path / "three-edge_check.json")
        assert out["tolerances"]["used_edge"] == 0.6
        state, edge, load = out["complete_learning_conditions"]["witness_utilization"]
        assert [state, edge] == ["e1", "e2"] and load == pytest.approx(0.5, abs=1e-12)


class TestDrainTable:
    def test_check_exits_0(self, tmp_path):
        # Frank-Wolfe alone ran this check to its 100,000-iteration cap and exit 3
        path = tmp_path / "drain.json"
        path.write_text(json.dumps(wheatstone_drain_table().to_scenario()))
        argv = ["check", "--scenario", str(path), "--grid-n", "4", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        payload = read_json(tmp_path / "wheatstone-drain_check.json")
        assert all(f["check"]["ok"] for f in payload["families"])


class TestExitCodes:
    def test_validation_failure_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["run", "--scenario", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2

    def test_unknown_builtin_is_2(self, tmp_path):
        code = main(["run", "--scenario", "nope", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_solver_failure_is_3(self, tmp_path, monkeypatch):
        import routelearn.dynamics as dynamics

        def boom(*args, **kwargs):
            raise SolverError("forced failure")

        monkeypatch.setattr(dynamics, "solve_wardrop_batch", boom)
        code = main(
            ["run", "--scenario", "three-edge", "--seed", "0", "--out-dir", str(tmp_path)]
        )
        assert code == 3

    def test_singular_newton_step_is_a_solver_failure(self, tmp_path, capsys):
        # a slope of 1e300 on (e1, e2) leaves the Newton step's system singular
        # in floating point; numpy's LinAlgError once exited 2 as a validation error
        payload = scenario_to_dict(load_scenario("three-edge"))
        payload["costs"][1]["params"]["slope"] = 1e300
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(payload))
        for command in (["run"], ["check", "--grid-n", "3"]):
            argv = [command[0], "--scenario", str(path), *command[1:], "--out-dir", str(tmp_path)]
            assert main(argv) == 3
            assert capsys.readouterr().err.startswith("solver error: Newton step: ")


DELETE = object()  # stands for deleting the entry instead of replacing it
BAD_VALUES = (
    None, True, False, 0, -1, 10**400, math.nan, math.inf, -math.inf,
    "", "e1", [], [1.0], {}, {"form": "affine"},
)
FIELD_PATH = re.compile(r"validation error: [A-Za-z_]\w*(\[\d+\])*([./][A-Za-z_]\w*(\[\d+\])*)*: ")


def _json_paths(value, path=()):
    """The path of every entry below `value`, down to the first 3 entries of each list."""
    if isinstance(value, dict):
        entries = list(value.items())
    elif isinstance(value, list):
        entries = list(enumerate(value))[:3]
    else:
        entries = []
    for key, child in entries:
        yield (*path, key)
        yield from _json_paths(child, (*path, key))


THREE_EDGE = _builtin_payloads()["three-edge"]


class TestMutatedScenarios:
    """A scenario file one field away from three-edge exits 0, 2 or 3 and never
    raises out of main; exit 2 names a field path and exit 3 says it is the solver."""

    @settings(max_examples=300, deadline=None)
    @given(
        path=st.sampled_from(tuple(_json_paths(THREE_EDGE))),
        value=st.sampled_from((*BAD_VALUES, DELETE)),
        command=st.sampled_from(
            [["run"], ["enumerate", "--grid-n", "3"], ["check", "--grid-n", "3"]]
        ),
    )
    # a sigma row of the wrong length once exited 2 with numpy's message, naming no field
    @example(path=("sigma", 1), value=[1.0], command=["run"])
    def test_every_outcome_is_an_exit_code(self, path, value, command):
        payload = copy.deepcopy(THREE_EDGE)
        *parents, key = path
        target = functools.reduce(operator.getitem, parents, payload)
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "mutated.json"
            scenario.write_text(json.dumps(payload))
            argv = [command[0], "--scenario", str(scenario), *command[1:], "--out-dir", tmp]
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        assert code in (0, 2, 3)
        if code == 2:
            assert FIELD_PATH.match(err.getvalue()), err.getvalue()
        if code == 3:
            assert err.getvalue().startswith("solver error: "), err.getvalue()
