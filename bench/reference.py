"""Reference computations made apart from routelearn, and the output checks.

Nothing here imports routelearn. Cost tables are written out from the
scenario descriptions (the README's three-edge table, the benchmark's own
Wheatstone table), and every expected value is derived from them with
numpy, scipy and exact rational arithmetic: the two-route closed form, a
Gaussian log-density replay, SLSQP on the Beckmann potential, and a
series-parallel reduction of the drawn network. No check compares against
a stored copy of an earlier output.

Each check is a function `check(out, inp, table)` that raises CheckFailed;
`out` holds the parsed outputs of one round and `inp` the inputs the round
gave the program.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import minimize

# A rest point may keep at most this much belief on states the used edges
# expose; it equals the stopping rule's delta, the only resolution to which
# the stopping rule pins the terminal belief.
MASS_TOL = 1e-3
# The program writes loads with 17 significant digits and solves the
# three-edge (affine) stages to machine precision through its face polish.
AFFINE_LOAD_TOL = 1e-9
# Polynomial stages stop at a relative duality gap of 1e-8, which leaves
# route-cost spreads near 1e-7; 1e-6 keeps a margin of ten.
POLY_TOL = 1e-6
# Bisection tolerance of `enumerate_rest_points` for family thresholds.
REFINE_TOL = 1e-6
USED_TOL = 1e-9


class CheckFailed(Exception):
    """A round's outputs disagree with a reference check."""


@dataclass(frozen=True)
class Table:
    """A scenario written out independently: topology, costs, prior, noise."""

    name: str
    edges: tuple[str, ...]
    endpoints: tuple[tuple[str, str], ...]  # (tail, head) node of each edge
    origin: str
    destination: str
    routes: tuple[tuple[str, ...], ...]
    states: tuple[str, ...]
    truth: str
    coeffs: np.ndarray  # (edges, states, degree + 1), ascending powers
    prior: np.ndarray
    sigma: np.ndarray
    demand: float = 1.0

    @property
    def incidence(self) -> np.ndarray:
        inc = np.zeros((len(self.edges), len(self.routes)))
        for r, route in enumerate(self.routes):
            for e in route:
                inc[self.edges.index(e), r] = 1.0
        return inc

    @property
    def truth_index(self) -> int:
        return self.states.index(self.truth)

    def mixed(self, theta) -> np.ndarray:
        return np.einsum("esc,s->ec", self.coeffs, np.asarray(theta, dtype=float))

    def edge_costs(self, coeffs: np.ndarray, loads) -> np.ndarray:
        return np.array([npoly.polyval(w, c) for w, c in zip(loads, coeffs)])

    def to_scenario(self) -> dict:
        """The routelearn scenario file for this table (schema version 1)."""
        costs = []
        for i, e in enumerate(self.edges):
            for j, s in enumerate(self.states):
                c = [float(x) for x in np.trim_zeros(self.coeffs[i, j], "b")]
                if len(c) <= 2:
                    c += [0.0] * (2 - len(c))
                    form = {"form": "affine", "params": {"slope": c[1], "intercept": c[0]}}
                else:
                    form = {"form": "polynomial", "params": {"coefficients": c}}
                costs.append({"edge": e, "state": s, **form})
        return {
            "schema_version": 1,
            "name": self.name,
            "network": {"edges": list(self.edges), "routes": [list(r) for r in self.routes]},
            "states": list(self.states),
            "true_state": self.truth,
            "costs": costs,
            "sigma": self.sigma.tolist(),
            "demand": self.demand,
            "initial_belief": self.prior.tolist(),
            "full_support_prior": bool((self.prior > 0).all()),
        }


def three_edge_table() -> Table:
    """The built-in `three-edge` scenario as the project README describes it.

    Entry edges e2, e3 join a shared exit edge e1. Every edge costs w + 5
    when healthy; a compromised e1 or e3 costs 3w + 5, a compromised e2
    costs w + 10. The truth is `none` and the prior is uniform.
    """
    edges = ("e1", "e2", "e3")
    states = ("e1", "e2", "e3", "none")
    coeffs = np.zeros((3, 4, 2))
    for i, e in enumerate(edges):
        for j, s in enumerate(states):
            coeffs[i, j] = (5.0, 1.0)
            if s == e:
                coeffs[i, j] = (10.0, 1.0) if e == "e2" else (5.0, 3.0)
    return Table(
        name="three-edge",
        edges=edges,
        endpoints=(("m", "t"), ("s", "m"), ("s", "m")),
        origin="s",
        destination="t",
        routes=(("e2", "e1"), ("e3", "e1")),
        states=states,
        truth="none",
        coeffs=coeffs,
        prior=np.full(4, 0.25),
        sigma=np.eye(3),
    )


def wheatstone_table() -> Table:
    """Wheatstone bridge with degree-4 outer edges and an affine bridge.

    Nodes s, a, b, t; outer edges e1 = s-a, e2 = s-b, e3 = a-t, e4 = b-t and
    the bridge e5 = a-b. Routes: e1-e3, e2-e4 and the zig-zag e1-e5-e4.
    Outer edges cost intercept + w + k w^4: the cheap-entry pair e1, e4 has
    intercept 2 and k = 6, the other pair intercept 6 and k = 1; the bridge
    costs 1 + 0.5 w. A compromised e1 or e4 triples its k, a compromised
    bridge costs 1 + 3 w. No state changes an intercept, so free-flow times
    carry no state information (the second complete-learning condition),
    and the cheap bridge keeps every route, so every edge, used in every
    state's equilibrium (the third).
    """
    edges = ("e1", "e2", "e3", "e4", "e5")
    states = ("e1", "e4", "e5", "none")
    base = {
        "e1": (2.0, 1.0, 0.0, 0.0, 6.0),
        "e2": (6.0, 1.0, 0.0, 0.0, 1.0),
        "e3": (6.0, 1.0, 0.0, 0.0, 1.0),
        "e4": (2.0, 1.0, 0.0, 0.0, 6.0),
        "e5": (1.0, 0.5, 0.0, 0.0, 0.0),
    }
    coeffs = np.zeros((5, 4, 5))
    for i, e in enumerate(edges):
        for j, s in enumerate(states):
            coeffs[i, j] = base[e]
            if s == e == "e5":
                coeffs[i, j, 1] = 3.0
            elif s == e:
                coeffs[i, j, 4] *= 3.0
    return Table(
        name="wheatstone-poly",
        edges=edges,
        endpoints=(("s", "a"), ("s", "b"), ("a", "t"), ("b", "t"), ("a", "b")),
        origin="s",
        destination="t",
        routes=(("e1", "e3"), ("e2", "e4"), ("e1", "e5", "e4")),
        states=states,
        truth="none",
        coeffs=coeffs,
        prior=np.full(4, 0.25),
        sigma=np.eye(5),
    )


# ---------------------------------------------------------------- references


def two_route_loads(table: Table, theta) -> np.ndarray:
    """Closed-form equilibrium edge loads of a two-route affine network.

    Edges on both routes carry the whole demand, so only the edges private
    to each route decide the split: route 1 takes
    f = (A2 d + B2 - B1) / (A1 + A2), clipped to [0, d], where A and B sum
    the believed slopes and intercepts over each route's private edges.
    """
    mix = table.mixed(theta)
    r1, r2 = (set(r) for r in table.routes)
    idx = table.edges.index
    a1 = sum(mix[idx(e), 1] for e in r1 - r2)
    b1 = sum(mix[idx(e), 0] for e in r1 - r2)
    a2 = sum(mix[idx(e), 1] for e in r2 - r1)
    b2 = sum(mix[idx(e), 0] for e in r2 - r1)
    d = table.demand
    f1 = min(d, max(0.0, (a2 * d + b2 - b1) / (a1 + a2)))
    return table.incidence @ np.array([f1, d - f1])


def beckmann_loads(table: Table, theta) -> np.ndarray:
    """Edge loads minimising the Beckmann potential, by scipy SLSQP."""
    mix = table.mixed(theta)
    prims = [npoly.polyint(c) for c in mix]
    inc = table.incidence
    n = len(table.routes)

    def potential(q):
        return sum(npoly.polyval(w, p) for w, p in zip(inc @ q, prims))

    def gradient(q):
        return inc.T @ table.edge_costs(mix, inc @ q)

    res = minimize(
        potential,
        np.full(n, table.demand / n),
        jac=gradient,
        method="SLSQP",
        bounds=[(0.0, table.demand)] * n,
        constraints=[
            {"type": "eq", "fun": lambda q: q.sum() - table.demand, "jac": lambda q: np.ones(n)}
        ],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    if not res.success:
        raise RuntimeError(f"SLSQP reference did not converge: {res.message}")
    return inc @ res.x


def distinguishable(table: Table, loads) -> list[int]:
    """Indices of states whose cost differs from the truth on a used edge."""
    w = np.asarray(loads, dtype=float)
    used = [i for i in range(len(table.edges)) if w[i] > USED_TOL]
    t = table.truth_index
    out = []
    for j in range(len(table.states)):
        if j == t:
            continue
        if any(
            abs(npoly.polyval(w[i], table.coeffs[i, j]) - npoly.polyval(w[i], table.coeffs[i, t]))
            > 1e-9
            for i in used
        ):
            out.append(j)
    return out


def replay_log_belief(table: Table, rows: dict) -> np.ndarray:
    """Log posterior after replaying a trajectory's observations from the prior.

    Each stage contributes the Gaussian log density of the realized costs on
    its used edges, mean the state's cost at the stage's loads and
    covariance the matching block of the noise covariance.
    """
    log_post = np.log(table.prior)
    for w, used, c in zip(rows["w"], rows["used"], rows["c"]):
        idx = np.flatnonzero(used)
        sig = table.sigma[np.ix_(idx, idx)]
        means = np.array(
            [[npoly.polyval(w[i], table.coeffs[i, j]) for i in idx] for j in range(len(table.states))]
        )
        resid = c[idx][None, :] - means
        quad = np.einsum("si,ij,sj->s", resid, np.linalg.inv(sig), resid)
        _, logdet = np.linalg.slogdet(sig)
        log_post = log_post - 0.5 * (quad + logdet + len(idx) * math.log(2 * math.pi))
    top = log_post.max()
    return log_post - (top + math.log(np.exp(log_post - top).sum()))


def is_series_parallel(table: Table) -> bool:
    """Two-terminal series-parallel test by reduction of the drawn network.

    Merge edges with the same end nodes and splice out interior nodes that
    meet exactly two edges, until nothing changes; the network is
    series-parallel iff one origin-destination edge is left.
    """
    edges = [frozenset(ep) for ep in table.endpoints]
    changed = True
    while changed:
        changed = False
        if len(set(edges)) < len(edges):
            edges = list(set(edges))
            changed = True
            continue
        for v in {v for ep in edges for v in ep} - {table.origin, table.destination}:
            touching = [ep for ep in edges if v in ep]
            if len(touching) == 2:
                (a,), (b,) = (ep - {v} for ep in touching)
                edges = [ep for ep in edges if v not in ep] + [frozenset((a, b))]
                changed = True
                break
    return edges == [frozenset((table.origin, table.destination))]


def learning_conditions(table: Table) -> dict:
    """Conditions 2 and 3 of complete learning, decided from the table.

    Condition 2: no edge's free-flow time (intercept) depends on the state.
    Condition 3: every edge carries load in every state's known-state
    equilibrium, computed here with SLSQP.
    """
    cond2 = bool((table.coeffs[:, :, 0] == table.coeffs[:, :1, 0]).all())
    cond3 = all(
        beckmann_loads(table, np.eye(len(table.states))[j]).min() > POLY_TOL
        for j in range(len(table.states))
    )
    return {"state_independent_free_flow": cond2, "all_edges_used": cond3}


# -------------------------------------------------------------- output reads


def read_trajectory_csv(path, table: Table) -> dict:
    """Columns of a trajectory CSV: stage, theta, loads, used flags, costs."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    col = {name: k for k, name in enumerate(header)}

    def block(prefix, labels, conv):
        return np.array([[conv(r[col[prefix + x]]) for x in labels] for r in body])

    return {
        "stage": np.array([int(r[col["stage"]]) for r in body]),
        "theta": block("theta_", table.states, float),
        "w": block("w_", table.edges, float),
        "used": block("used_", table.edges, lambda v: v == "1"),
        "c": block("c_", table.edges, lambda v: float(v) if v else np.nan),
    }


def _vec(mapping: dict, labels) -> np.ndarray:
    return np.array([mapping[x] for x in labels], dtype=float)


def _fail(check: str, detail: str):
    raise CheckFailed(f"{check}: {detail}")


# ------------------------------------------------- batch-three-edge checks


def check_seeds_converged(out, inp, table):
    batch = out["batch"]
    if batch["seeds"] != inp["seeds"]:
        _fail("seeds_converged", f"seeds {batch['seeds'][:3]}... != requested")
    bad = [s["seed"] for s in batch["per_seed"] if s["status"] != "converged"]
    if bad or batch["n_converged"] != len(inp["seeds"]):
        _fail("seeds_converged", f"seeds not converged: {bad}")


def check_closed_form_loads(out, inp, table):
    """Last-stage loads equal the closed form at that stage's prior belief,
    and sit at one of the two rest loads (1, 0.5, 0.5) or (1, 0, 1)."""
    rest = [two_route_loads(table, np.eye(4)[table.truth_index])]
    rest.append(two_route_loads(table, [0.0, 1.0, 0.0, 0.0]))
    for s in out["batch"]["per_seed"]:
        rows = out["csv"][s["seed"]]
        prior = rows["theta"][-2] if len(rows["theta"]) > 1 else table.prior
        w = rows["w"][-1]
        expect = two_route_loads(table, prior)
        if np.abs(w - expect).max() > AFFINE_LOAD_TOL:
            _fail("closed_form_loads", f"seed {s['seed']}: loads {w} vs closed form {expect}")
        if np.abs(_vec(s["terminal_loads"], table.edges) - w).max() > 1e-12:
            _fail("closed_form_loads", f"seed {s['seed']}: summary loads differ from CSV")
        # Residual mass m moves the three-edge split by at most 2.5 m.
        if min(np.abs(w - r).max() for r in rest) > 2.5 * MASS_TOL:
            _fail("closed_form_loads", f"seed {s['seed']}: terminal loads {w} are no rest load")


def check_no_distinguishable_mass(out, inp, table):
    for s in out["batch"]["per_seed"]:
        w = _vec(s["terminal_loads"], table.edges)
        theta = _vec(s["terminal_belief"], table.states)
        mass = theta[distinguishable(table, w)].sum()
        if mass > MASS_TOL:
            _fail("no_distinguishable_mass", f"seed {s['seed']}: mass {mass} at loads {w}")


def check_e2_threshold(out, inp, table):
    """At loads (1, 0, 1) the e2 route stays unused only while theta_e2 >= 0.2."""
    for s in out["batch"]["per_seed"]:
        w = _vec(s["terminal_loads"], table.edges)
        if w[table.edges.index("e2")] <= USED_TOL and s["terminal_belief"]["e2"] < 0.2 - 1e-9:
            _fail("e2_threshold", f"seed {s['seed']}: theta_e2 {s['terminal_belief']['e2']}")


def check_replay_belief(out, inp, table):
    for s in out["batch"]["per_seed"]:
        rows = out["csv"][s["seed"]]
        if len(rows["stage"]) != s["stages"] or list(rows["stage"]) != list(
            range(1, s["stages"] + 1)
        ):
            _fail("replay_belief", f"seed {s['seed']}: CSV rows do not match {s['stages']} stages")
        replayed = replay_log_belief(table, rows)
        for name, got in (
            ("CSV", rows["theta"][-1]),
            ("summary", _vec(s["terminal_belief"], table.states)),
        ):
            # Compare log masses, so that a state the belief all but rules
            # out still counts; masses below 1e-290 may have underflowed.
            seen = got > 1e-290
            gap = np.abs(np.log(got[seen]) - replayed[seen])
            if gap.max(initial=0.0) > 1e-6 or (replayed[~seen] > math.log(1e-280)).any():
                _fail("replay_belief", f"seed {s['seed']}: {name} belief {got} vs replay {np.exp(replayed)}")


# --------------------------------------------- enumerate-three-edge checks


def _e2_threshold(table: Table) -> Fraction:
    """Belief on `e2` above which e2 stays unused at loads (1, 0, 1).

    With support {e2, truth}, route e3-e1 costs the truth's e3 cost at load
    1, and route e2-e1 the mixed e2 intercept; they tie at this belief.
    """
    i2, i3 = table.edges.index("e2"), table.edges.index("e3")
    t, j2 = table.truth_index, table.states.index("e2")
    e3_full = Fraction(npoly.polyval(1.0, table.coeffs[i3, t]))
    b_true = Fraction(table.coeffs[i2, t, 0])
    b_bad = Fraction(table.coeffs[i2, j2, 0])
    return (e3_full - b_true) / (b_bad - b_true)


def check_nodes_evaluated(out, inp, table):
    g, s = inp["grid_n"], len(table.states)
    if out["report"]["nodes_evaluated"] != math.comb(g + s - 1, s - 1):
        _fail("nodes_evaluated", f"{out['report']['nodes_evaluated']} != C({g + s - 1}, {s - 1})")


def _families_by_used(report) -> dict:
    return {tuple(f["used"]): f for f in report["families"]}


def check_families(out, inp, table):
    """Exactly {none} at (1, 0.5, 0.5) and {e2, none} at (1, 0, 1), e2 >= 0.2."""
    fams = _families_by_used(out["report"])
    full, partial = ("e1", "e2", "e3"), ("e1", "e3")
    if sorted(fams) != sorted([full, partial]) or len(out["report"]["families"]) != 2:
        _fail("families", f"families {list(fams)}")
    truth_loads = two_route_loads(table, np.eye(4)[table.truth_index])
    frozen_loads = two_route_loads(table, [0.0, 1.0, 0.0, 0.0])
    for used, support, loads in (
        (full, [table.truth], truth_loads),
        (partial, ["e2", table.truth], frozen_loads),
    ):
        f = fams[used]
        if f["support"] != support:
            _fail("families", f"{used}: support {f['support']} != {support}")
        if np.abs(_vec(f["loads"], table.edges) - loads).max() > AFFINE_LOAD_TOL:
            _fail("families", f"{used}: loads {f['loads']} != {loads}")
    lo, hi = fams[partial]["thresholds"]["e2"]
    if abs(lo - float(_e2_threshold(table))) > REFINE_TOL or hi != 1.0:
        _fail("families", f"e2 threshold ({lo}, {hi}) != (0.2, 1)")


def check_nodes_passing(out, inp, table):
    """Grid nodes k/G passing: the truth's point mass, plus every node on the
    {e2, none} edge of the simplex with k/G >= the e2 threshold."""
    g = inp["grid_n"]
    k_min = math.ceil(_e2_threshold(table) * g)
    frozen = g - k_min + 1
    fams = _families_by_used(out["report"])
    if out["report"]["nodes_passing"] != 1 + frozen:
        _fail("nodes_passing", f"{out['report']['nodes_passing']} != {1 + frozen}")
    counts = {u: f["grid_nodes"] for u, f in fams.items()}
    if counts.get(("e1", "e2", "e3")) != 1 or counts.get(("e1", "e3")) != frozen:
        _fail("nodes_passing", f"family node counts {counts}")


def check_average_costs(out, inp, table):
    t = table.truth_index
    for used, want in ((("e1", "e2", "e3"), 11.5), (("e1", "e3"), 12.0)):
        w = _vec(_families_by_used(out["report"])[used]["loads"], table.edges)
        ref = float(w @ table.edge_costs(table.coeffs[:, t], w))
        got = _families_by_used(out["report"])[used]["average_cost_true_state"]
        if abs(ref - want) > 1e-9 or abs(got - want) > 1e-9:
            _fail("average_costs", f"{used}: {got} (reference {ref}) != {want}")


# -------------------------------------------------- wheatstone-poly checks


def check_learning_condition(out, inp, table):
    """Condition 2 or 3 holds by the table, and `check` reports the same."""
    ref = inp["conditions"]
    got = out["check"]["complete_learning_conditions"]
    for key, value in ref.items():
        if got[key] != value:
            _fail("learning_condition", f"{key}: program {got[key]}, table {value}")
    if not (ref["state_independent_free_flow"] or ref["all_edges_used"]) or not got["any_holds"]:
        _fail("learning_condition", "no complete-learning condition holds")


def check_learns_truth(out, inp, table):
    """A complete-learning condition holds, so every seed learns the truth."""
    batch = out["batch"]
    if batch["seeds"] != inp["seeds"] or batch["n_converged"] != len(inp["seeds"]):
        _fail("learns_truth", f"{batch['n_converged']}/{len(inp['seeds'])} seeds converged")
    for s in batch["per_seed"]:
        if s["status"] != "converged" or s["terminal_belief"][table.truth] < 1.0 - MASS_TOL:
            _fail("learns_truth", f"seed {s['seed']}: {s['status']}, {s['terminal_belief']}")


def check_wardrop_numpy(out, inp, table):
    """Terminal loads are a Wardrop equilibrium of the terminal belief."""
    inc = table.incidence
    for s in out["batch"]["per_seed"]:
        w = _vec(s["terminal_loads"], table.edges)
        q, *_ = np.linalg.lstsq(inc, w, rcond=None)
        if np.abs(inc @ q - w).max() > 1e-9 or q.min() < -1e-9 or abs(q.sum() - table.demand) > 1e-9:
            _fail("wardrop_numpy", f"seed {s['seed']}: loads {w} are no feasible route flow")
        mix = table.mixed(_vec(s["terminal_belief"], table.states))
        t = inc.T @ table.edge_costs(mix, w)
        used = q > USED_TOL
        if (t[used].max() - t.min()) > POLY_TOL * t.min():
            _fail("wardrop_numpy", f"seed {s['seed']}: route costs {t} on used {used}")


def check_beckmann_slsqp(out, inp, table):
    cache = {}
    for s in out["batch"]["per_seed"]:
        theta = _vec(s["terminal_belief"], table.states)
        key = theta.tobytes()
        if key not in cache:
            cache[key] = beckmann_loads(table, theta)
        w = _vec(s["terminal_loads"], table.edges)
        if np.abs(w - cache[key]).max() > POLY_TOL:
            _fail("beckmann_slsqp", f"seed {s['seed']}: loads {w} vs SLSQP {cache[key]}")


def check_not_series_parallel(out, inp, table):
    ref = is_series_parallel(table)
    if ref or out["check"]["series_parallel"] != ref:
        _fail("not_series_parallel", f"program {out['check']['series_parallel']}, reduction {ref}")


def check_single_family(out, inp, table):
    """Complete learning leaves one rest point: the truth, every edge used."""
    fams = out["check"]["families"]
    if len(fams) != 1 or fams[0]["support"] != [table.truth] or fams[0]["used"] != list(table.edges):
        _fail("single_family", f"families {[(f['used'], f['support']) for f in fams]}")
    ref = beckmann_loads(table, np.eye(len(table.states))[table.truth_index])
    if np.abs(_vec(fams[0]["loads"], table.edges) - ref).max() > POLY_TOL:
        _fail("single_family", f"loads {fams[0]['loads']} vs SLSQP {ref}")


CHECKS = {
    "batch-three-edge": (
        check_seeds_converged,
        check_closed_form_loads,
        check_no_distinguishable_mass,
        check_e2_threshold,
        check_replay_belief,
    ),
    "enumerate-three-edge": (
        check_nodes_evaluated,
        check_families,
        check_nodes_passing,
        check_average_costs,
    ),
    "wheatstone-poly": (
        check_learning_condition,
        check_learns_truth,
        check_wardrop_numpy,
        check_beckmann_slsqp,
        check_not_series_parallel,
        check_single_family,
    ),
}


def run_checks(workload: str, out, inp, table) -> list[str]:
    """Names and details of the checks the round's outputs fail."""
    failures = []
    for check in CHECKS[workload]:
        try:
            check(out, inp, table)
        except CheckFailed as exc:
            failures.append(str(exc))
    return failures
