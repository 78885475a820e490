"""Scenario definition, JSON loading/validation, and built-in scenarios."""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping


from .costs import DEFAULT_ALPHA, Belief, CostFunction, CostModel
from .errors import BeliefError, CostError, NetworkError, ScenarioError
from .graph import Network

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Tolerances:
    """Solver and classification tolerances; each field is checked on construction.

    A bad value raises ScenarioError naming `tolerances.<field>`, whether it
    comes from a scenario file, a command-line flag or library code.
    """

    equilibrium: float = 1e-8
    used_edge: float | None = None  # None resolves to 1e-9 * demand
    cost_equality: float = 1e-9

    def __post_init__(self):
        if self.used_edge is not None:
            used_edge = _finite(self.used_edge, "tolerances.used_edge")
            if not used_edge >= 0:
                raise ScenarioError("tolerances.used_edge", "must be finite and at least 0")
            object.__setattr__(self, "used_edge", used_edge)
        for name in ("equilibrium", "cost_equality"):
            object.__setattr__(self, name, _positive(getattr(self, name), f"tolerances.{name}"))


@dataclass(frozen=True)
class ConvergenceRule:
    """The stopping rule of the stage loop (see `dynamics.run_block`).

    Checked on construction like `Tolerances`: `window` and `max_stages` are
    integers (a float with an integer value is taken as one), `window` is at
    least 1, `max_stages` at least `window`, and `delta` finite and positive.
    """

    window: int = 50
    delta: float = 1e-3
    max_stages: int = 5000

    def __post_init__(self):
        window = _integer(self.window, "convergence.window")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "delta", _positive(self.delta, "convergence.delta"))
        max_stages = _integer(self.max_stages, "convergence.max_stages")
        object.__setattr__(self, "max_stages", max_stages)
        if window < 1:
            raise ScenarioError("convergence.window", "must be at least 1")
        if max_stages < window:
            raise ScenarioError("convergence.max_stages", "must be at least the window")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run the learning dynamics once."""

    name: str
    network: Network
    true_state: str
    model: CostModel
    demand: float
    initial_belief: Belief
    tolerances: Tolerances = field(default_factory=Tolerances)
    convergence: ConvergenceRule = field(default_factory=ConvergenceRule)
    comment: str = ""
    requires_full_support: bool = True
    schema_version: int = SCHEMA_VERSION

    @property
    def used_edge_tol(self) -> float:
        if self.tolerances.used_edge is not None:
            return self.tolerances.used_edge
        return 1e-9 * self.demand


def _three_edge_payload(name: str, e2_compromised: dict, theta0, full_support: bool) -> dict:
    """Shared body of the built-in three-edge scenarios.

    The cost table is pinned by three identities that the test suite
    re-verifies with the solver: the known-state equilibrium splits demand
    as (1, 0.5, 0.5) with average cost 11.5; sending everything over e3
    gives loads (1, 0, 1) with average cost 12; and with loads (1, 0, 1)
    the e2 route re-enters once the believed chance of a compromised e2
    drops below 0.2. Compromised e1/e3 raise only the slope (free-flow time
    unchanged), compromised e2 raises the free-flow time by 5.
    """
    affine = lambda a, b: {"form": "affine", "params": {"slope": a, "intercept": b}}
    costs = []
    for edge in ("e1", "e2", "e3"):
        for state in ("e1", "e2", "e3", "none"):
            if state != edge:
                entry = affine(1.0, 5.0)
            elif edge == "e2":
                entry = dict(e2_compromised)
            else:
                entry = affine(3.0, 5.0)
            costs.append({"edge": edge, "state": state, **entry})
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "comment": (
            "Three-edge network: two parallel entry edges e2/e3 feeding a shared "
            "exit edge e1. Verified identities: known-state loads (1, 0.5, 0.5) "
            "with average cost 11.5; exclusive-e3 loads (1, 0, 1) with average "
            "cost 12; e2 re-entry threshold at belief 0.2 on the e2 state."
        ),
        "network": {"edges": ["e1", "e2", "e3"], "routes": [["e2", "e1"], ["e3", "e1"]]},
        "states": ["e1", "e2", "e3", "none"],
        "true_state": "none",
        "costs": costs,
        "sigma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "demand": 1.0,
        "initial_belief": list(theta0),
        "alpha": DEFAULT_ALPHA,
        "full_support_prior": full_support,
    }


def _builtin_payloads() -> dict[str, dict]:
    base_e2 = {"form": "affine", "params": {"slope": 1.0, "intercept": 10.0}}
    cond2_e2 = {"form": "affine", "params": {"slope": 2.0, "intercept": 5.0}}
    return {
        "three-edge": _three_edge_payload(
            "three-edge", base_e2, (0.25, 0.25, 0.25, 0.25), True
        ),
        "three-edge-cond2": _three_edge_payload(
            "three-edge-cond2", cond2_e2, (0.25, 0.25, 0.25, 0.25), True
        ),
        "three-edge-accurate-prior": _three_edge_payload(
            "three-edge-accurate-prior", base_e2, (0.0, 0.1, 0.0, 0.9), False
        ),
    }


BUILTIN_NAMES = tuple(sorted(_builtin_payloads()))


def _finite(value, path: str) -> float:
    """`value` as a float when it is a finite number (not a boolean); otherwise a
    ScenarioError naming `path`. Every number read from a payload passes here."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise ScenarioError(path, "expected a finite number")
    return float(value)


def _finite_list(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ScenarioError(path, "expected list")
    return [_finite(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _require(payload: Mapping, key: str, kind, path: str):
    where = f"{path}.{key}" if path else key
    if key not in payload:
        raise ScenarioError(where, "missing field")
    value = payload[key]
    if kind is float:
        return _finite(value, where)
    if not isinstance(value, kind):
        raise ScenarioError(where, f"expected {kind.__name__}")
    return value


def _positive(value, path: str) -> float:
    """`value` as a float when it is a finite number above 0; otherwise a ScenarioError."""
    number = _finite(value, path)
    if not number > 0:
        raise ScenarioError(path, "must be a finite positive number")
    return number


def _integer(value, path: str) -> int:
    """`value` as an int when it is an integer, or a float with an integer value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioError(path, "expected an integer")
    return int(value)


def _cost_function_from(entry: Mapping, path: str) -> CostFunction:
    form = _require(entry, "form", str, path)
    params = _require(entry, "params", dict, path)
    try:
        if form == "affine":
            return CostFunction.affine(
                _require(params, "slope", float, f"{path}.params"),
                _require(params, "intercept", float, f"{path}.params"),
            )
        if form == "polynomial":
            coeffs = _require(params, "coefficients", list, f"{path}.params")
            return CostFunction.polynomial(_finite_list(coeffs, f"{path}.params.coefficients"))
    except CostError as exc:
        raise ScenarioError(path, str(exc)) from None
    raise ScenarioError(f"{path}.form", f"unknown form {form!r}")


def scenario_from_dict(payload: Mapping[str, Any]) -> Scenario:
    """Build and fully validate a Scenario from a plain dictionary."""
    version = payload.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"unsupported version {version!r}")
    name = _require(payload, "name", str, "")

    net_cfg = _require(payload, "network", dict, "")
    edges = _require(net_cfg, "edges", list, "network")
    routes = _require(net_cfg, "routes", list, "network")
    for k, route in enumerate(routes):
        if not isinstance(route, list):
            raise ScenarioError(f"network.routes[{k}]", "expected list")
    try:
        network = Network(edges, routes)
    except NetworkError as exc:
        raise ScenarioError("network", str(exc)) from None

    states = tuple(str(s) for s in _require(payload, "states", list, ""))
    if not states:
        raise ScenarioError("states", "state space is empty")
    if len(states) != len(set(states)):
        raise ScenarioError("states", "duplicate state labels")
    true_state = _require(payload, "true_state", str, "")
    if true_state not in states:
        raise ScenarioError("true_state", f"{true_state!r} is not among the states")

    cost_entries = _require(payload, "costs", list, "")
    table: dict[tuple[str, str], CostFunction] = {}
    for i, entry in enumerate(cost_entries):
        path = f"costs[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(path, "expected an object")
        edge = _require(entry, "edge", str, path)
        state = _require(entry, "state", str, path)
        if edge not in network.edge_ids:
            raise ScenarioError(f"{path}.edge", f"unknown edge {edge!r}")
        if state not in states:
            raise ScenarioError(f"{path}.state", f"unknown state {state!r}")
        if (edge, state) in table:
            raise ScenarioError(path, f"duplicate entry for ({edge}, {state})")
        table[(edge, state)] = _cost_function_from(entry, path)

    sigma_rows = _require(payload, "sigma", list, "")
    if len(sigma_rows) != network.n_edges:
        raise ScenarioError("sigma", f"has {len(sigma_rows)} rows, expected {network.n_edges}")
    sigma = []
    for i, row in enumerate(sigma_rows):
        sigma.append(_finite_list(row, f"sigma[{i}]"))
        if len(row) != network.n_edges:
            raise ScenarioError(
                f"sigma[{i}]", f"has {len(row)} entries, expected {network.n_edges}"
            )
    demand = _positive(_require(payload, "demand", float, ""), "demand")
    alpha = _positive(payload.get("alpha", DEFAULT_ALPHA), "alpha")

    try:
        model = CostModel(network.edge_ids, states, table, sigma, alpha)
    except CostError as exc:
        raise ScenarioError("costs/sigma", str(exc)) from None
    try:
        model.ensure_slope_bound()
    except CostError as exc:
        raise ScenarioError("costs", str(exc)) from None

    belief_raw = _finite_list(_require(payload, "initial_belief", list, ""), "initial_belief")
    if len(belief_raw) != len(states):
        raise ScenarioError(
            "initial_belief",
            f"has {len(belief_raw)} entries, expected {len(states)}",
        )
    try:
        theta0 = Belief(belief_raw)
    except BeliefError as exc:
        raise ScenarioError("initial_belief", str(exc)) from None

    full_support = payload.get("full_support_prior", bool((theta0.probs > 0).all()))
    if not isinstance(full_support, bool):
        raise ScenarioError("full_support_prior", "expected a boolean")
    if full_support and not (theta0.probs > 0).all():
        raise ScenarioError(
            "initial_belief", "declared full support but some state has zero mass"
        )

    tol_cfg = payload.get("tolerances", {})
    if not isinstance(tol_cfg, dict):
        raise ScenarioError("tolerances", "expected an object")
    # schema 1 still carries `feasibility`, which no computation reads
    if "feasibility" in tol_cfg:
        _positive(tol_cfg["feasibility"], "tolerances.feasibility")
    tolerances = Tolerances(
        **{k: tol_cfg[k] for k in ("equilibrium", "used_edge", "cost_equality") if k in tol_cfg}
    )

    conv_cfg = payload.get("convergence", {})
    if not isinstance(conv_cfg, dict):
        raise ScenarioError("convergence", "expected an object")
    convergence = ConvergenceRule(
        **{k: conv_cfg[k] for k in ("window", "delta", "max_stages") if k in conv_cfg}
    )

    return Scenario(
        name=name,
        network=network,
        true_state=true_state,
        model=model,
        demand=demand,
        initial_belief=theta0,
        tolerances=tolerances,
        convergence=convergence,
        comment=str(payload.get("comment", "")),
        requires_full_support=full_support,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Round-trippable plain-dict form of a scenario (load-compatible)."""
    costs = []
    for edge in scenario.network.edge_ids:
        for state in scenario.model.states:
            fn = scenario.model.table[(edge, state)]
            if fn.form == "affine":
                params = {"slope": fn.coefficients[1], "intercept": fn.coefficients[0]}
            else:
                params = {"coefficients": list(fn.coefficients)}
            costs.append(
                {"edge": edge, "state": state, "form": fn.form, "params": params}
            )
    return {
        "schema_version": scenario.schema_version,
        "name": scenario.name,
        "comment": scenario.comment,
        "network": {
            "edges": list(scenario.network.edge_ids),
            "routes": [list(r) for r in scenario.network.routes],
        },
        "states": list(scenario.model.states),
        "true_state": scenario.true_state,
        "costs": costs,
        "sigma": scenario.model.sigma.tolist(),
        "demand": scenario.demand,
        "initial_belief": scenario.initial_belief.probs.tolist(),
        "alpha": scenario.model.alpha,
        "full_support_prior": scenario.requires_full_support,
        "tolerances": {
            "equilibrium": scenario.tolerances.equilibrium,
            "used_edge": scenario.tolerances.used_edge,
            "cost_equality": scenario.tolerances.cost_equality,
        },
        "convergence": {
            "window": scenario.convergence.window,
            "delta": scenario.convergence.delta,
            "max_stages": scenario.convergence.max_stages,
        },
    }


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a built-in name or a JSON file path."""
    builtins = _builtin_payloads()
    if isinstance(source, str) and source in builtins:
        return scenario_from_dict(builtins[source])
    path = Path(source)
    if not path.exists():
        raise ScenarioError(
            str(source),
            f"not a built-in scenario (choose from {list(BUILTIN_NAMES)}) and no such file",
        )
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ScenarioError(str(path), "top level must be an object")
    return scenario_from_dict(payload)
