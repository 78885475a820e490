from __future__ import annotations

import json
import re

import numpy as np
import pytest

from routelearn import (
    BUILTIN_NAMES,
    ConvergenceRule,
    ScenarioError,
    Tolerances,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from routelearn.cli import main
from routelearn.costs import Belief
from routelearn.equilibrium import solve_wardrop


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_NAMES) == {
            "three-edge",
            "three-edge-cond2",
            "three-edge-accurate-prior",
        }

    def test_three_edge_shape(self, three_edge):
        assert three_edge.demand == 1.0
        assert np.array_equal(three_edge.model.sigma, np.eye(3))
        assert three_edge.model.states == ("e1", "e2", "e3", "none")
        assert three_edge.true_state == "none"
        assert three_edge.model.state_index(three_edge.true_state) == 3
        assert np.array_equal(three_edge.initial_belief.probs, np.full(4, 0.25))
        assert three_edge.network.routes == (("e2", "e1"), ("e3", "e1"))

    def test_cond2_differs_only_on_e2_compromised(self, three_edge, cond2):
        fn = cond2.model.table[("e2", "e2")]
        assert fn.coefficients == (5.0, 2.0)
        for key, base_fn in three_edge.model.table.items():
            if key != ("e2", "e2"):
                assert cond2.model.table[key].coefficients == base_fn.coefficients

    def test_accurate_prior(self, accurate_prior):
        assert np.array_equal(accurate_prior.initial_belief.probs, [0.0, 0.1, 0.0, 0.9])
        assert not accurate_prior.requires_full_support

    def test_default_tolerances(self, three_edge):
        assert three_edge.tolerances.equilibrium == 1e-8
        assert three_edge.used_edge_tol == pytest.approx(1e-9)
        assert three_edge.convergence.window == 50
        assert three_edge.convergence.delta == 1e-3
        assert three_edge.convergence.max_stages == 5000


class TestCostReconstruction:
    """The built-in cost table must reproduce the pinned identities."""

    def test_complete_information_split_and_cost(self, three_edge):
        truth = Belief([0.0, 0.0, 0.0, 1.0])
        eq = solve_wardrop(three_edge.network, three_edge.model, truth, 1.0)
        assert np.allclose(eq.edge_loads, [1.0, 0.5, 0.5], atol=1e-12)
        assert np.allclose(eq.route_costs, [11.5, 11.5], atol=1e-12)

    def test_exclusive_route_family_load(self, three_edge):
        eq = solve_wardrop(
            three_edge.network, three_edge.model, Belief([0.0, 0.5, 0.0, 0.5]), 1.0
        )
        assert np.allclose(eq.edge_loads, [1.0, 0.0, 1.0], atol=1e-12)

    def test_reentry_threshold_at_one_fifth(self, three_edge):
        at = solve_wardrop(
            three_edge.network, three_edge.model, Belief([0.0, 0.2, 0.0, 0.8]), 1.0
        )
        below = solve_wardrop(
            three_edge.network, three_edge.model, Belief([0.0, 0.19999, 0.0, 0.80001]), 1.0
        )
        assert at.edge_loads[1] == 0.0
        assert below.edge_loads[1] > 0.0


class TestRoundTrip:
    def test_dict_round_trip(self, three_edge):
        payload = scenario_to_dict(three_edge)
        again = scenario_from_dict(payload)
        assert again.name == three_edge.name
        assert again.network.routes == three_edge.network.routes
        assert np.array_equal(again.model.sigma, three_edge.model.sigma)
        for key, fn in three_edge.model.table.items():
            assert again.model.table[key].coefficients == fn.coefficients

    def test_file_round_trip(self, three_edge, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(three_edge)))
        again = load_scenario(path)
        assert again.name == three_edge.name
        assert np.array_equal(again.initial_belief.probs, three_edge.initial_belief.probs)

    def test_unknown_source(self):
        with pytest.raises(ScenarioError):
            load_scenario("no-such-scenario")

    def test_polynomial_costs_round_trip(self, three_edge, tmp_path):
        payload = scenario_to_dict(three_edge)
        payload["name"] = "poly-variant"
        for entry in payload["costs"]:
            if entry["edge"] == "e1" and entry["state"] == "none":
                entry["form"] = "polynomial"
                entry["params"] = {"coefficients": [5.0, 1.0, 0.25]}
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(payload))
        sc = load_scenario(path)
        fn = sc.model.table[("e1", "none")]
        assert fn.form == "polynomial"
        assert fn.coefficients == (5.0, 1.0, 0.25)
        again = scenario_from_dict(scenario_to_dict(sc))
        assert again.model.table[("e1", "none")].coefficients == (5.0, 1.0, 0.25)


class TestValidation:
    def payload(self, three_edge, **overrides):
        p = scenario_to_dict(three_edge)
        p.update(overrides)
        return p

    def test_bad_simplex_rejected(self, three_edge):
        p = self.payload(three_edge, initial_belief=[0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ScenarioError, match="initial_belief"):
            scenario_from_dict(p)

    def test_belief_length_mismatch(self, three_edge):
        p = self.payload(three_edge, initial_belief=[0.5, 0.5])
        with pytest.raises(ScenarioError, match="initial_belief"):
            scenario_from_dict(p)

    def test_non_spd_sigma_rejected(self, three_edge):
        sigma = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ScenarioError, match="sigma"):
            scenario_from_dict(self.payload(three_edge, sigma=sigma))

    @pytest.mark.parametrize("row", [[], [1.0], [0.0, 1.0, 0.0, 0.0]])
    def test_sigma_row_of_the_wrong_length_names_the_row(self, three_edge, row):
        # numpy's message for a ragged matrix once stood in for the field
        sigma = scenario_to_dict(three_edge)["sigma"]
        sigma[1] = row
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(self.payload(three_edge, sigma=sigma))
        assert str(exc.value) == f"sigma[1]: has {len(row)} entries, expected 3"

    @pytest.mark.parametrize("n_rows", [2, 4])
    def test_sigma_with_the_wrong_row_count_names_sigma(self, three_edge, n_rows):
        # the cost model's shape check once answered under `costs/sigma`, no field of the file
        sigma = np.eye(n_rows, 3).tolist()
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(self.payload(three_edge, sigma=sigma))
        assert str(exc.value) == f"sigma: has {n_rows} rows, expected 3"

    def test_slope_violation_reported_with_entries(self, three_edge):
        p = self.payload(three_edge)
        for entry in p["costs"]:
            if entry["edge"] == "e2" and entry["state"] == "none":
                entry["params"]["slope"] = 0.0
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(p)
        assert str(exc.value) == "costs: minimum-slope check failed (alpha=0.001) on: (e2, none)"

    def test_unknown_edge_in_costs(self, three_edge):
        p = self.payload(three_edge)
        p["costs"][0]["edge"] = "zz"
        with pytest.raises(ScenarioError, match=r"costs\[0\]"):
            scenario_from_dict(p)

    def test_missing_cost_entry(self, three_edge):
        p = self.payload(three_edge)
        p["costs"] = p["costs"][:-1]
        with pytest.raises(ScenarioError):
            scenario_from_dict(p)

    def test_route_with_unknown_edge(self, three_edge):
        p = self.payload(three_edge)
        p["network"]["routes"][0] = ["zz", "e1"]
        with pytest.raises(ScenarioError, match="network"):
            scenario_from_dict(p)

    def test_nonpositive_demand(self, three_edge):
        with pytest.raises(ScenarioError, match="demand"):
            scenario_from_dict(self.payload(three_edge, demand=0.0))

    def test_full_support_declaration_enforced(self, three_edge):
        p = self.payload(three_edge, initial_belief=[0.0, 0.25, 0.25, 0.5])
        p["full_support_prior"] = True
        with pytest.raises(ScenarioError, match="full support"):
            scenario_from_dict(p)

    def test_window_bounds(self, three_edge):
        p = self.payload(three_edge)
        p["convergence"] = {"window": 100, "max_stages": 50}
        with pytest.raises(ScenarioError, match="max_stages"):
            scenario_from_dict(p)

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(bad)

    def test_unsupported_schema_version(self, three_edge):
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict(self.payload(three_edge, schema_version=99))

    @pytest.mark.parametrize(
        "field",
        [
            "demand",
            "alpha",
            "tolerances.equilibrium",
            "tolerances.cost_equality",
            "tolerances.used_edge",
            "convergence.delta",
        ],
    )
    def test_nan_rejected_naming_the_field(self, three_edge, tmp_path, capsys, field):
        # NaN fails every comparison, so a `<= 0` range check lets it through
        payload = scenario_to_dict(three_edge)
        *parents, key = field.split(".")
        target = payload
        for name in parents:
            target = target[name]
        target[key] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        argv = ["enumerate", "--scenario", str(path), "--grid-n", "4"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert f"validation error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("demand", float("inf")),
            ("alpha", float("inf")),
            ("tolerances.equilibrium", float("inf")),
            ("tolerances.feasibility", float("inf")),
            ("tolerances.cost_equality", float("inf")),
            ("convergence.delta", float("inf")),
            ("demand", 10**400),
            ("alpha", True),
            ("tolerances.cost_equality", "1e-9"),
            ("convergence.window", float("nan")),
            ("convergence.window", float("inf")),
            ("convergence.window", 2.5),
            ("convergence.window", "50"),
            ("convergence.max_stages", float("inf")),
            ("convergence.max_stages", float("nan")),
            ("convergence.max_stages", 5000.5),
            ("convergence.max_stages", True),
            ("costs[0].params.coefficients[1]", 10**400),
            ("costs[0].params.coefficients[1]", "x"),
            ("costs[0].params.coefficients[1]", True),
            ("costs[0].params.coefficients[0]", float("inf")),
            ("costs[1].params.slope", True),
            ("tolerances.used_edge", "abc"),
            ("tolerances.used_edge", True),
            ("tolerances.used_edge", 10**400),
            ("sigma[0][0]", 10**400),
            ("sigma[0][0]", "1"),
            ("sigma[2]", 1.0),
            ("initial_belief[0]", "0.25"),
            ("initial_belief[3]", float("nan")),
        ],
    )
    def test_non_finite_and_non_integer_rejected_naming_the_field(
        self, three_edge, tmp_path, capsys, field, value
    ):
        # every case starts from the three-edge payload with its first cost
        # entry written as a polynomial
        payload = scenario_to_dict(three_edge)
        payload["costs"][0].update(form="polynomial", params={"coefficients": [5.0, 3.0]})
        *parents, key = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", field)]
        target = payload
        for name in parents:
            target = target[name]
        target[key] = value
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(payload)
        assert exc.value.path == field
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        argv = ["enumerate", "--scenario", str(path), "--grid-n", "2", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert f"validation error: {field}:" in capsys.readouterr().err

    def test_integral_floats_are_counts(self, three_edge):
        payload = scenario_to_dict(three_edge)
        payload["convergence"].update(window=20.0, max_stages=400.0)
        conv = scenario_from_dict(payload).convergence
        assert (conv.window, conv.max_stages) == (20, 400)
        assert type(conv.window) is type(conv.max_stages) is int


class TestRuleFields:
    """The stopping rule and the tolerances check their own fields, wherever
    they are built: a scenario file, a command-line flag or library code."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: ConvergenceRule(window=0), "convergence.window"),
            (lambda: ConvergenceRule(window=5, max_stages=3), "convergence.max_stages"),
            (lambda: ConvergenceRule(delta=float("inf")), "convergence.delta"),
            (lambda: ConvergenceRule(delta=float("nan")), "convergence.delta"),
            (lambda: ConvergenceRule(delta=0.0), "convergence.delta"),
            (lambda: ConvergenceRule(window=2.5), "convergence.window"),
            (lambda: ConvergenceRule(max_stages=True), "convergence.max_stages"),
            (lambda: Tolerances(equilibrium=0.0), "tolerances.equilibrium"),
            (lambda: Tolerances(equilibrium=float("inf")), "tolerances.equilibrium"),
            (lambda: Tolerances(cost_equality=-1e-9), "tolerances.cost_equality"),
            (lambda: Tolerances(used_edge=-1.0), "tolerances.used_edge"),
            (lambda: Tolerances(used_edge=float("nan")), "tolerances.used_edge"),
        ],
    )
    def test_bad_values_name_the_field(self, build, field):
        with pytest.raises(ScenarioError) as exc:
            build()
        assert exc.value.path == field

    def test_counts_and_numbers_are_normalized(self):
        rule = ConvergenceRule(window=np.int64(10), delta=1, max_stages=40.0)
        assert (rule.window, rule.delta, rule.max_stages) == (10, 1.0, 40)
        assert type(rule.window) is type(rule.max_stages) is int and type(rule.delta) is float
        tols = Tolerances(equilibrium=1, used_edge=0)
        assert (tols.equilibrium, tols.used_edge) == (1.0, 0.0)
        assert Tolerances().used_edge is None


class TestStateLabels:
    """The loader owns the state labels: the model keeps them, the scenario the truth."""

    def test_true_state_and_label_indices(self, three_edge):
        p = scenario_to_dict(three_edge)
        p["true_state"] = "e2"
        sc = scenario_from_dict(p)
        assert sc.true_state == "e2"
        assert sc.model.state_index(sc.true_state) == 1
        assert sc.model.state_index("none") == 3

    def test_duplicate_labels_rejected(self, three_edge):
        p = scenario_to_dict(three_edge)
        p["states"] = ["e1", "e1", "e3", "none"]
        with pytest.raises(ScenarioError, match="states: duplicate"):
            scenario_from_dict(p)

    def test_empty_labels_rejected(self, three_edge):
        p = scenario_to_dict(three_edge)
        p["states"] = []
        with pytest.raises(ScenarioError, match="states: .*empty"):
            scenario_from_dict(p)

    def test_true_state_must_exist(self, three_edge):
        p = scenario_to_dict(three_edge)
        p["true_state"] = "zz"
        with pytest.raises(ScenarioError, match="true_state: 'zz'"):
            scenario_from_dict(p)

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"states": ["e1", "e1", "e3", "none"]}, "states"),
            ({"states": []}, "states"),
            ({"true_state": "zz"}, "true_state"),
        ],
    )
    def test_cli_exits_2_naming_the_field(self, three_edge, tmp_path, capsys, change, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**scenario_to_dict(three_edge), **change}))
        code = main(["check", "--scenario", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"validation error: {field}:" in capsys.readouterr().err
