from __future__ import annotations

import dataclasses
import itertools
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import routelearn.dynamics as dynamics
import routelearn.equilibrium as equilibrium
from routelearn import (
    BUILTIN_NAMES,
    CONVERGED,
    MAX_STAGES,
    Belief,
    ScenarioError,
    SolverError,
    load_scenario,
    monte_carlo,
    run,
    scenario_from_dict,
    scenario_to_dict,
    summarize,
    write_trajectory_csv,
)
from routelearn.belief import bayes_update
from routelearn.costs import polyval_ascending
from routelearn.dynamics import NoiseSampler, realize_costs, run_block, step
from routelearn.equilibrium import solve_wardrop_batch

from oracles import (
    certify_nothing,
    exact_solve_wardrop,
    grid_payload,
    random_spd,
    reference_run,
    reference_write_trajectory_csv,
    replay_posterior,
    wheatstone_poly_payload,
)


@pytest.fixture(scope="module")
def correlated():
    # three-edge with correlated noise: at seeds 0..11 every trajectory runs
    # past the first noise chunk, and they leave at stages 72 to 172
    payload = scenario_to_dict(load_scenario("three-edge"))
    payload["name"] = "three-edge-correlated"
    payload["sigma"] = random_spd(np.random.default_rng(3), 3).tolist()
    return scenario_from_dict(payload)


@pytest.fixture
def small_blocks(monkeypatch):
    """Let monte_carlo split a batch into blocks of any size, so that a test on
    a few seeds still runs two or three blocks and the process pool."""
    monkeypatch.setattr(dynamics, "_MIN_BLOCK_SEEDS", 1)


@pytest.fixture
def spawned(monkeypatch):
    """One entry per process a ProcessPoolExecutor starts."""
    started = []
    spawn = ProcessPoolExecutor._spawn_process

    def counting(pool):
        started.append(1)
        spawn(pool)

    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", counting)
    return started


def _with_rule(scenario, **rule):
    """The scenario with the given stopping-rule fields replaced."""
    return dataclasses.replace(
        scenario, convergence=dataclasses.replace(scenario.convergence, **rule)
    )


def _relabeled(payload: dict, names: dict[str, str]) -> dict:
    """The payload with each edge id and state label renamed through `names`."""
    out = dict(payload)
    out["network"] = {
        "edges": [names[e] for e in payload["network"]["edges"]],
        "routes": [[names[e] for e in r] for r in payload["network"]["routes"]],
    }
    out["states"] = [names[x] for x in payload["states"]]
    out["true_state"] = names[payload["true_state"]]
    out["costs"] = [
        {**c, "edge": names[c["edge"]], "state": names[c["state"]]} for c in payload["costs"]
    ]
    return out


def _assert_reference_bits(scenario, traj) -> None:
    """The trajectory is the reference loop's for its seed, bit for bit."""
    records, status = reference_run(scenario, traj.seed)
    assert traj.status == status
    assert traj.n_stages == len(records)
    for k, rec in enumerate(records, start=1):
        assert np.array_equal(traj.beliefs[k], rec.belief_post.probs)
        assert np.array_equal(traj.equilibria.edge_loads[k - 1], rec.equilibrium.edge_loads)
        used = traj.used[k - 1]
        assert _labels(scenario, used) == rec.observation.used
        assert np.array_equal(traj.costs[k - 1, used], rec.observation.costs)


def _labels(scenario, mask) -> tuple[str, ...]:
    """The edge ids of a used-edge mask, in edge order."""
    return tuple(e for e, u in zip(scenario.network.edge_ids, mask) if u)


def _trajectory_arrays(traj) -> list[np.ndarray]:
    eq = traj.equilibria
    return [
        traj.beliefs, traj.used, traj.costs, eq.route_flows, eq.edge_loads, eq.gap,
        eq.route_costs, eq.n_iterations, eq.potential, eq.converged,
    ]


def _both_writers(traj, tmp_path) -> tuple[bytes, bytes]:
    fast = write_trajectory_csv(traj, tmp_path / "fast.csv").read_bytes()
    slow = reference_write_trajectory_csv(traj, tmp_path / "slow.csv").read_bytes()
    return fast, slow


class TestNoiseSampler:
    def test_deterministic_given_seed(self):
        sigma = np.eye(3)
        a = NoiseSampler(sigma, 42).sample(10)
        b = NoiseSampler(sigma, 42).sample(10)
        assert np.array_equal(a, b)

    def test_empirical_covariance(self):
        rng = np.random.default_rng(3)
        sigma = random_spd(rng, 3)
        sampler = NoiseSampler(sigma, 2024)
        n = 1_000_000
        draws = sampler.sample(n)
        emp_mean = draws.mean(axis=0)
        emp_cov = np.cov(draws.T)
        bound = 3.0 / np.sqrt(n) * max(1.0, np.max(np.abs(sigma)))
        assert np.max(np.abs(emp_mean)) <= bound
        assert np.max(np.abs(emp_cov - sigma)) <= bound

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_chunks_equal_successive_draws_bit_for_bit(self, n):
        # correlated sigma: a matrix product over the whole chunk would sum
        # in another order
        sigma = random_spd(np.random.default_rng(n), n)
        one_at_a_time = NoiseSampler(sigma, 29)
        singles = np.array([one_at_a_time.sample() for _ in range(80)])
        chunked = NoiseSampler(sigma, 29)
        parts = [chunked.sample(64), chunked.sample()[None, :], chunked.sample(15)]
        assert np.array_equal(np.vstack(parts), singles)


class TestRealizeCosts:
    def test_zero_noise_gives_true_costs(self, three_edge):
        w = np.array([[1.0, 0.5, 0.5]])
        costs = realize_costs(three_edge, w, np.ones((1, 3), bool), np.zeros((1, 3)))
        assert np.allclose(costs, [[6.0, 5.5, 5.5]], atol=1e-15)

    def test_restricted_to_used_edges(self, three_edge):
        w = np.array([[1.0, 0.0, 1.0]])
        used = np.array([[True, False, True]])
        costs = realize_costs(three_edge, w, used, np.zeros((1, 3)))
        assert costs.shape == (1, 3)
        assert np.isnan(costs[0, 1])
        assert np.allclose(costs[used], [6.0, 6.0])

    def test_noise_added_componentwise(self, three_edge):
        w = np.array([[1.0, 0.5, 0.5]])
        noise = np.array([[0.1, -0.2, 0.3]])
        costs = realize_costs(three_edge, w, np.ones((1, 3), bool), noise)
        assert np.allclose(costs, [[6.1, 5.3, 5.8]], atol=1e-15)

    def test_rows_are_independent_observations(self, three_edge):
        w = np.array([[1.0, 0.5, 0.5], [1.0, 0.0, 1.0]])
        used = np.array([[True, True, True], [True, False, True]])
        noise = np.array([[0.1, -0.2, 0.3], [0.0, 5.0, 0.0]])
        costs = realize_costs(three_edge, w, used, noise)
        for i in range(2):
            one = realize_costs(three_edge, w[i], used[i], noise[i])
            assert np.array_equal(costs[i], one, equal_nan=True)
        assert np.allclose(costs[1, [0, 2]], [6.0, 6.0]) and np.isnan(costs[1, 1])


def _one_stage(scenario, theta: Belief, sampler: NoiseSampler):
    """`step` on a block of one belief, with one noise draw."""
    return step(scenario, theta.probs[None, :], sampler.sample()[None, :])


class TestStep:
    def test_rest_point_belief_is_fixed(self, three_edge):
        # at a rest point the support states share the same used-edge costs,
        # so the posterior equals the prior no matter what noise realizes
        theta = Belief([0.0, 0.5, 0.0, 0.5])
        sampler = NoiseSampler(three_edge.model.sigma, 99)
        for _ in range(5):
            eq, _, _, post = _one_stage(three_edge, theta, sampler)
            assert np.allclose(eq.edge_loads[0], [1.0, 0.0, 1.0], atol=1e-12)
            assert np.allclose(post[0], theta.probs, atol=1e-14)
            theta = Belief(post[0])

    def test_point_mass_on_truth_unchanged(self, three_edge):
        theta = Belief([0.0, 0.0, 0.0, 1.0])
        sampler = NoiseSampler(three_edge.model.sigma, 5)
        _, _, _, post = _one_stage(three_edge, theta, sampler)
        assert np.array_equal(post[0], theta.probs)

    def test_record_chains_are_consistent(self, three_edge):
        sampler = NoiseSampler(three_edge.model.sigma, 11)
        eq, used, costs, _ = _one_stage(three_edge, Belief.uniform(4), sampler)
        assert np.array_equal(used, eq.edge_loads > three_edge.used_edge_tol)
        assert np.isfinite(costs[used]).all() and np.isnan(costs[~used]).all()


class TestRun:
    def test_reproducible_bit_for_bit(self, three_edge):
        t1 = run(three_edge, seed=7)
        t2 = run(three_edge, seed=7)
        assert t1.status == t2.status and t1.n_stages == t2.n_stages
        assert np.array_equal(t1.beliefs, t2.beliefs)
        assert np.array_equal(t1.equilibria.edge_loads, t2.equilibria.edge_loads)
        assert np.array_equal(t1.costs, t2.costs, equal_nan=True)

    def test_converges_on_three_edge(self, three_edge):
        traj = run(three_edge, seed=0)
        assert traj.status == CONVERGED
        assert traj.n_stages <= 5000

    def test_chain_consistency_with_replay(self, three_edge):
        traj = run(_with_rule(three_edge, max_stages=200), seed=3)
        replayed = replay_posterior(
            three_edge.initial_belief, three_edge.model, traj.used, traj.equilibria.edge_loads,
            traj.costs,
        )
        assert np.max(np.abs(replayed.probs - traj.final_belief.probs)) <= 1e-9

    def test_posterior_chain_links_records(self, three_edge):
        # stage k updates belief row k - 1 with its observation into row k
        traj = run(_with_rule(three_edge, max_stages=80), seed=13)
        for k in range(1, traj.n_stages + 1):
            used = traj.used[k - 1]
            post = bayes_update(
                traj.beliefs[k - 1 : k], three_edge.model, tuple(np.flatnonzero(used).tolist()),
                traj.equilibria.edge_loads[k - 1 : k], traj.costs[k - 1 : k, used],
            )
            assert np.array_equal(post[0], traj.beliefs[k])

    def test_window_requirement(self, three_edge):
        # a cap below the window is a rule that cannot be built
        with pytest.raises(ScenarioError, match="^convergence.max_stages:"):
            _with_rule(three_edge, max_stages=10, window=20)

    def test_max_stages_status(self, three_edge):
        traj = run(_with_rule(three_edge, max_stages=5, window=5), seed=0)
        assert traj.status == "max_stages"
        assert traj.n_stages == 5


class TestMonteCarlo:
    def test_singleton_batch_equals_single_run(self, three_edge):
        batch = monte_carlo(three_edge, [4])
        single = summarize(run(three_edge, 4))
        got = batch.summaries[0]
        assert got.status == single.status
        assert got.n_stages == single.n_stages
        assert np.array_equal(got.terminal_loads, single.terminal_loads)
        assert np.array_equal(got.terminal_belief, single.terminal_belief)
        assert batch.clusters[0].count == 1

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize(
        "seeds, workers, processes",
        # two seeds make two blocks, so four workers start one process for
        # the second block; one seed is one block, run without a pool
        [([1, 2], 4, 1), ([1], 4, 0), ([1, 2, 3], 3, 2)],
    )
    def test_pool_starts_one_process_per_block_after_the_first(
        self, three_edge, spawned, seeds, workers, processes
    ):
        batch = monte_carlo(_with_rule(three_edge, max_stages=55), seeds, workers=workers)
        assert [s.seed for s in batch.summaries] == seeds
        assert len(spawned) == processes

    @pytest.mark.parametrize(
        "n_seeds, processes",
        # two workers split a batch only when each block gets the floor
        [(4, 0), (2 * dynamics._MIN_BLOCK_SEEDS - 1, 0), (2 * dynamics._MIN_BLOCK_SEEDS, 1)],
    )
    def test_pool_starts_only_when_each_block_reaches_the_floor(
        self, three_edge, spawned, n_seeds, processes
    ):
        seeds = list(range(n_seeds))
        batch = monte_carlo(_with_rule(three_edge, max_stages=2, window=1), seeds, workers=2)
        assert [s.seed for s in batch.summaries] == seeds
        assert len(spawned) == processes

    def test_duplicate_seeds_rejected(self, three_edge):
        with pytest.raises(ValueError):
            monte_carlo(three_edge, [1, 1])

    @pytest.mark.usefixtures("small_blocks")
    def test_parallel_matches_sequential(self, three_edge):
        seeds = list(range(6))
        seq = monte_carlo(three_edge, seeds, workers=1)
        par = monte_carlo(three_edge, seeds, workers=2)
        for a, b in zip(seq.summaries, par.summaries):
            assert a.seed == b.seed and a.status == b.status and a.n_stages == b.n_stages
            assert np.array_equal(a.terminal_loads, b.terminal_loads)
            assert np.array_equal(a.terminal_belief, b.terminal_belief)

    def test_cluster_shares_sum_to_one(self, three_edge):
        batch = monte_carlo(three_edge, range(10))
        assert sum(c.count for c in batch.clusters) == 10
        assert sum(c.share for c in batch.clusters) == pytest.approx(1.0)


class TestTrajectoryCsv:
    def test_layout_and_replay_determinism(self, three_edge, tmp_path):
        short = _with_rule(three_edge, max_stages=60)
        traj = run(short, seed=2)
        p1 = write_trajectory_csv(traj, tmp_path / "a.csv")
        p2 = write_trajectory_csv(run(short, seed=2), tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0].split(",")
        assert header[0] == "stage"
        assert "theta_none" in header and "w_e2" in header and "used_e3" in header
        assert "c_e1" in header

    def test_unused_edges_have_empty_cost_cells(self, three_edge, tmp_path):
        traj = run(three_edge, seed=231)  # reaches the two-edge rest point
        path = write_trajectory_csv(traj, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        last = lines[-1].split(",")
        row = dict(zip(header, last))
        assert row["used_e2"] == "0"
        assert row["c_e2"] == ""
        assert row["c_e1"] != ""

    @pytest.mark.parametrize("name", [*BUILTIN_NAMES, "wheatstone"])
    def test_bytes_equal_reference_writer(self, name, tmp_path):
        if name == "wheatstone":
            scenario = scenario_from_dict(wheatstone_poly_payload())
        else:
            scenario = load_scenario(name)
        for traj in run_block(scenario, [0, 1, 231]):
            fast, slow = _both_writers(traj, tmp_path)
            assert fast == slow

    def test_labels_that_need_quoting(self, three_edge, tmp_path):
        names = {"e1": "e,1", "e2": 'e"2"', "e3": "e3", "none": 'no, "ne"'}
        scenario = scenario_from_dict(_relabeled(scenario_to_dict(three_edge), names))
        traj = run(scenario, 231)
        assert {tuple(u) for u in traj.used.tolist()} == {(True, True, True), (True, False, True)}
        fast, slow = _both_writers(traj, tmp_path)
        assert fast == slow
        assert fast.startswith(b'stage,"theta_e,1","theta_e""2""",theta_e3,"theta_no, ""ne"""')

    def test_special_values(self, three_edge, tmp_path):
        # -0.0, the smallest subnormal, NaN, huge and infinite values in every
        # float column, under three used-edge patterns
        traj = run(_with_rule(three_edge, max_stages=4, window=4), 0)
        special = np.array(
            [[-0.0, 5e-324, np.nan, 1e300],
             [1e300, -0.0, 5e-324, np.nan],
             [np.nan, 1e300, -np.inf, 2.2250738585072014e-308],
             [0.1, -1e-300, np.inf, -0.0]]
        )
        used = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 0], [1, 0, 1]], dtype=bool)
        traj = dataclasses.replace(
            traj,
            beliefs=np.vstack([traj.beliefs[0], special]),
            equilibria=dataclasses.replace(traj.equilibria, edge_loads=special[:, 1:]),
            used=used,
            costs=np.where(used, special[:, ::-1][:, :3], np.nan),
        )
        fast, slow = _both_writers(traj, tmp_path)
        assert fast == slow
        for cell in (b",-0,", b",4.9406564584124654e-324,", b",nan,", b"e+300,", b",-inf,"):
            assert cell in fast


class TestRestPointClosure:
    def test_converged_terminals_pass_rest_point_check(self, three_edge):
        from routelearn import check_rest_point

        for seed in (0, 1, 231):
            traj = run(three_edge, seed=seed)
            assert traj.status == CONVERGED
            chk = check_rest_point(
                three_edge, traj.final_belief, traj.final_loads, load_tol=1e-2, mass_tol=1e-2
            )
            assert chk.ok, chk.violations

    def test_complete_learning_when_condition_holds(self, cond2):
        batch = monte_carlo(cond2, range(15))
        assert batch.n_converged == 15
        for s in batch.summaries:
            assert np.max(np.abs(s.terminal_loads - np.array([1.0, 0.5, 0.5]))) <= 1e-2

    def test_incomplete_learning_trajectory_shape(self, three_edge):
        # a seed known to freeze on the two-edge rest point: the surviving
        # belief mass sits on the unused-edge state and the truth, with the
        # unused-edge state at or above the re-entry threshold
        traj = run(three_edge, seed=231)
        assert traj.status == CONVERGED
        assert traj.final_used == ("e1", "e3")
        assert np.allclose(traj.final_loads, [1.0, 0.0, 1.0], atol=1e-9)
        belief = traj.final_belief.probs
        assert belief[0] <= 1e-3 and belief[2] <= 1e-3
        assert belief[1] >= 0.2
        assert belief[1] + belief[3] == pytest.approx(1.0, abs=1e-9)


class TestLockstepBlocks:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_block_matches_reference_loop_bit_for_bit(self, name):
        scenario = load_scenario(name)
        seeds = [231, *range(0, 400, 25)]
        seen = set()
        for traj in run_block(scenario, seeds):
            seen.add(traj.seed)
            _assert_reference_bits(scenario, traj)
        assert seen == set(seeds)

    @pytest.mark.parametrize("rule", [{}, {"max_stages": 40, "window": 10}])
    def test_correlated_noise_replays_one_draw_per_stage(self, correlated, rule):
        # a stage reads its noise from the seed's current chunk; seeds leave
        # mid-chunk while the others go on into later chunks, and a cap below
        # the chunk length leaves most of a chunk unread
        model = correlated.model
        coeffs = model.state_coefficients(correlated.true_state)
        stages = []
        for traj in run_block(_with_rule(correlated, **rule), range(12)):
            stages.append(traj.n_stages)
            sampler = NoiseSampler(model.sigma, traj.seed)
            for k in range(traj.n_stages):
                used, loads = traj.used[k], traj.equilibria.edge_loads[k]
                costs = polyval_ascending(coeffs, loads) + sampler.sample()
                assert np.array_equal(traj.costs[k, used], costs[used])
        if rule:
            assert max(stages) == 40 and min(stages) < 40
        else:
            assert min(stages) > dynamics._NOISE_CHUNK
            assert max(stages) > 2 * dynamics._NOISE_CHUNK
        assert len(set(stages)) > 1

    @pytest.mark.parametrize("rule", [{}, {"max_stages": 40, "window": 10}])
    def test_correlated_noise_block_matches_reference_loop(self, correlated, rule):
        # the reference likelihood whitens by a triangular solve, the block
        # by the cached inverse factor, so beliefs agree to rounding, not bits
        scenario = _with_rule(correlated, **rule)
        for traj in run_block(scenario, range(12)):
            records, status = reference_run(scenario, traj.seed)
            assert traj.status == status
            assert traj.n_stages == len(records)
            loads = np.array([r.equilibrium.edge_loads for r in records])
            beliefs = np.array([r.belief_post.probs for r in records])
            assert np.max(np.abs(traj.equilibria.edge_loads - loads)) <= 1e-12
            assert np.max(np.abs(traj.beliefs[1:] - beliefs)) <= 1e-12
            for k, rec in enumerate(records, start=1):
                used = traj.used[k - 1]
                assert _labels(scenario, used) == rec.observation.used
                assert np.max(np.abs(traj.costs[k - 1, used] - rec.observation.costs)) <= 1e-12

    @pytest.mark.usefixtures("small_blocks")
    def test_correlated_noise_worker_count_does_not_change_outputs(self, correlated, tmp_path):
        seeds = list(range(12))
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            batch = monte_carlo(correlated, seeds, workers=workers, trajectory_dir=out)
            outputs[workers] = batch, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        (batch1, files1), (batch2, files2) = outputs[1], outputs[2]
        assert len(files1) == len(seeds) and files2 == files1
        for a, b in zip(batch1.summaries, batch2.summaries):
            assert (a.seed, a.status, a.n_stages) == (b.seed, b.status, b.n_stages)
            assert np.array_equal(a.terminal_belief, b.terminal_belief)

    def test_wheatstone_block_matches_reference_loop(self):
        # degree-4 costs: the reference Frank-Wolfe stops at a gap of 1e-8,
        # so the loop takes its equilibria from the exact equal-cost solve,
        # and the block sums in another order, so agreement is to 1e-12
        scenario = scenario_from_dict(wheatstone_poly_payload())
        for traj in run_block(scenario, range(6)):
            records, status = reference_run(scenario, traj.seed, solve=exact_solve_wardrop)
            assert traj.status == status
            assert traj.n_stages == len(records)
            loads = np.array([r.equilibrium.edge_loads for r in records])
            beliefs = np.array([r.belief_post.probs for r in records])
            assert np.max(np.abs(traj.equilibria.edge_loads - loads)) <= 1e-12
            assert np.max(np.abs(traj.beliefs[1:] - beliefs)) <= 1e-12

    @pytest.mark.usefixtures("small_blocks")
    def test_worker_count_does_not_change_outputs(self, three_edge, tmp_path):
        # 10 seeds make blocks of 10, 5 + 5 and 3 + 3 + 4; with max_stages 70
        # seeds 0 and 2 stop at the cap while their block mates converge
        seeds = list(range(10))
        outputs = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"workers{workers}"
            batch = monte_carlo(
                _with_rule(three_edge, max_stages=70), seeds, workers=workers, trajectory_dir=out
            )
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs[workers] = (batch, files)
        batch1, files1 = outputs[1]
        status = {s.seed: s.status for s in batch1.summaries}
        assert status[0] == status[2] == MAX_STAGES
        assert status[1] == CONVERGED
        assert len(files1) == len(seeds)
        for workers in (2, 3):
            batch, files = outputs[workers]
            assert files == files1
            assert [c.seeds for c in batch.clusters] == [c.seeds for c in batch1.clusters]
            for a, b in zip(batch1.summaries, batch.summaries):
                assert (a.seed, a.status, a.n_stages, a.terminal_used) == (
                    b.seed,
                    b.status,
                    b.n_stages,
                    b.terminal_used,
                )
                assert np.array_equal(a.terminal_loads, b.terminal_loads)
                assert np.array_equal(a.terminal_belief, b.terminal_belief)

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize(
        "payload, n_seeds",
        [(wheatstone_poly_payload(), 6), (grid_payload(4, 4, 0), 24)],
        ids=["wheatstone-poly", "grid-4x4-g0"],
    )
    def test_polish_worker_count_does_not_change_outputs(self, tmp_path, payload, n_seeds):
        # Newton polish from each seed's previous equilibrium: the start is the
        # seed's own history, not its block mates'; on the grid, tied routes
        # have dependent incidence columns
        scenario = scenario_from_dict(payload)
        seeds = list(range(n_seeds))
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            batch = monte_carlo(scenario, seeds, workers=workers, trajectory_dir=out)
            outputs[workers] = batch, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        (batch1, files1), (batch2, files2) = outputs[1], outputs[2]
        assert len(files1) == len(seeds) and files2 == files1
        for a, b in zip(batch1.summaries, batch2.summaries):
            assert (a.seed, a.status, a.n_stages, a.terminal_used) == (
                b.seed, b.status, b.n_stages, b.terminal_used
            )
            assert np.array_equal(a.terminal_loads, b.terminal_loads)
            assert np.array_equal(a.terminal_belief, b.terminal_belief)

    def test_wheatstone_block_rows_equal_single_runs(self):
        scenario = scenario_from_dict(wheatstone_poly_payload())
        for traj in run_block(scenario, range(6)):
            single = run(scenario, traj.seed)
            assert traj.status == single.status and traj.n_stages == single.n_stages
            assert np.array_equal(traj.beliefs, single.beliefs)
            assert np.array_equal(traj.equilibria.route_flows, single.equilibria.route_flows)
            assert np.array_equal(traj.equilibria.edge_loads, single.equilibria.edge_loads)
            assert np.array_equal(traj.equilibria.n_iterations, single.equilibria.n_iterations)
            assert np.array_equal(traj.costs, single.costs, equal_nan=True)

    def test_each_stage_starts_from_the_previous_equilibrium(self, monkeypatch):
        scenario = scenario_from_dict(wheatstone_poly_payload())
        starts, flows = [], []

        def recording(network, model, thetas, demand, **kw):
            eq = solve_wardrop_batch(network, model, thetas, demand, **kw)
            starts.append(kw.get("init_flows"))
            flows.append(eq.route_flows)
            return eq

        monkeypatch.setattr(dynamics, "solve_wardrop_batch", recording)
        # a window as long as the run: every seed stays all 20 stages, in its row
        trajs = list(run_block(_with_rule(scenario, max_stages=20, window=20), [0, 1, 2]))
        assert [t.n_stages for t in trajs] == [20, 20, 20] and len(starts) == 20
        assert starts[0] is None
        for k in range(1, 20):
            assert np.array_equal(starts[k], flows[k - 1])

    def test_block_trajectories_equal_single_runs(self, three_edge):
        scenario = _with_rule(three_edge, max_stages=60, window=5)
        for traj in run_block(scenario, [5, 6, 7]):
            single = run(scenario, traj.seed)
            assert traj.status == single.status and traj.n_stages == single.n_stages
            assert np.array_equal(traj.beliefs, single.beliefs)
            assert np.array_equal(traj.costs, single.costs, equal_nan=True)

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_nonconvergence_names_seed_and_stage(self, monkeypatch, workers):
        # the polish would certify every stage in its first round; without
        # it, the all-or-nothing start of stage 1 does not pass. With two
        # workers the calling process runs block 0 (seed 11), so its error
        # surfaces first, not seed 12's from the pool's block
        monkeypatch.setattr(equilibrium, "_face_polish", certify_nothing)
        scenario = scenario_from_dict(wheatstone_poly_payload())
        with pytest.raises(SolverError, match="seed 11, stage 1: no convergence after round 1") as info:
            monte_carlo(scenario, [11, 12], workers=workers)
        assert info.value.best is not None

    def test_invalid_stopping_rule_fails_before_any_work(self, three_edge):
        # the rule is checked when it is built, so no batch can start with it
        with pytest.raises(ScenarioError, match="^convergence.max_stages:"):
            _with_rule(three_edge, max_stages=3, window=5)



class TestChunkBuffers:
    # a block keeps a chunk of _NOISE_CHUNK = 64 stages of noise and stage
    # rows per seed; running seeds 0..599 found these seeds leaving next to a
    # chunk edge under the default rule: on three-edge seed 8 leaves at stage
    # 64, the first chunk's last, and seed 42 at 65, the second's first; on
    # three-edge-cond2 seed 138 leaves at 128 and seed 104 at 129
    EDGE_SEEDS = {"three-edge": {8: 64, 42: 65}, "three-edge-cond2": {138: 128, 104: 129}}

    @pytest.mark.parametrize("name", sorted(EDGE_SEEDS))
    def test_seeds_leaving_at_chunk_edges_match_reference_loop(self, name):
        scenario = load_scenario(name)
        edges = self.EDGE_SEEDS[name]
        stages = {}
        for traj in run_block(scenario, [*edges, 0, 1, 2]):
            stages[traj.seed] = traj.n_stages
            _assert_reference_bits(scenario, traj)
        assert {s: stages[s] for s in edges} == edges
        assert dynamics._NOISE_CHUNK == 64
        # a seed leaves on a chunk's last stage while the others go on
        assert max(stages.values()) > min(edges.values())

    @pytest.mark.parametrize("max_stages", [64, 65, 128])
    def test_stage_cap_at_chunk_edges_matches_reference_loop(self, cond2, max_stages):
        # seeds 138 and 104 play past stage 128, seeds 0 and 1 leave earlier
        scenario = _with_rule(cond2, max_stages=max_stages)
        trajs = list(run_block(scenario, [138, 104, 0, 1]))
        assert max(t.n_stages for t in trajs) == max_stages
        for traj in trajs:
            _assert_reference_bits(scenario, traj)

    def test_trajectories_own_their_memory(self, three_edge):
        # seeds that leave before, at and after the first chunk's end
        seeds = [8, 42, 11, 0, 1]
        trajs = list(run_block(three_edge, seeds))
        assert sorted(t.n_stages for t in trajs)[-1] > dynamics._NOISE_CHUNK
        for a, b in itertools.combinations(trajs, 2):
            for x in _trajectory_arrays(a):
                for y in _trajectory_arrays(b):
                    assert not np.shares_memory(x, y)
        # no array is a view into the block's (seeds, chunk, row) buffer
        buffer_rows = len(seeds) * dynamics._NOISE_CHUNK
        for traj in trajs:
            for x in _trajectory_arrays(traj):
                base = x
                while base is not None:
                    assert base.ndim < 3 and base.size // max(base.shape[-1], 1) < buffer_rows
                    base = base.base
