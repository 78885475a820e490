from __future__ import annotations

import itertools

import numpy as np
import pytest

from routelearn import (
    Network,
    NetworkError,
    is_series_parallel,
)
from routelearn.graph import (
    row_any,
    row_groups,
    row_max,
    row_min,
    row_sum,
    underlying_graph,
    used_edges,
)

from oracles import reference_row_groups, wheatstone_network


@pytest.fixture
def three_edge_net():
    return Network(["e1", "e2", "e3"], [["e2", "e1"], ["e3", "e1"]])


class TestNetworkConstruction:
    def test_incidence_matches_routes(self, three_edge_net):
        inc = three_edge_net.incidence
        rebuilt = np.zeros_like(inc)
        for k, route in enumerate(three_edge_net.routes):
            for e in route:
                rebuilt[three_edge_net.edge_ids.index(e), k] = 1.0
        assert np.array_equal(inc, rebuilt)

    def test_incidence_read_only(self, three_edge_net):
        with pytest.raises(ValueError):
            three_edge_net.incidence[0, 0] = 5.0

    def test_rejects_empty_route(self):
        with pytest.raises(NetworkError):
            Network(["a"], [[]])

    def test_rejects_unknown_edge(self):
        with pytest.raises(NetworkError):
            Network(["a"], [["a", "zz"]])

    def test_rejects_unused_edge(self):
        with pytest.raises(NetworkError):
            Network(["a", "b"], [["a"]])

    def test_rejects_repeated_edge_on_route(self):
        with pytest.raises(NetworkError):
            Network(["a", "b"], [["a", "b", "a"]])

    def test_rejects_duplicate_edge_ids(self):
        with pytest.raises(NetworkError):
            Network(["a", "a"], [["a"]])


class TestEdgeLoads:
    # every solver turns route flows into edge loads with the incidence matrix
    def test_three_edge_even_split(self, three_edge_net):
        w = three_edge_net.incidence @ [0.5, 0.5]
        assert np.array_equal(w, [1.0, 0.5, 0.5])

    def test_zero_demand(self, three_edge_net):
        assert np.array_equal(three_edge_net.incidence @ [0.0, 0.0], np.zeros(3))

    def test_all_on_second_route(self, three_edge_net):
        assert np.array_equal(three_edge_net.incidence @ [0.0, 1.0], [1.0, 0.0, 1.0])

    def test_matches_direct_summation_randomized(self, three_edge_net):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = rng.uniform(0.0, 2.0, size=2)
            w = three_edge_net.incidence @ q
            assert (w >= 0).all()
            for i, e in enumerate(three_edge_net.edge_ids):
                direct = sum(
                    q[k] for k, r in enumerate(three_edge_net.routes) if e in r
                )
                assert w[i] == pytest.approx(direct, abs=0.0)


class TestUsedEdges:
    def test_complete_information_load(self, three_edge_net):
        assert used_edges(three_edge_net, [1.0, 0.5, 0.5], 1e-9).tolist() == [True, True, True]

    def test_rest_point_load(self, three_edge_net):
        assert used_edges(three_edge_net, [1.0, 0.0, 1.0], 1e-9).tolist() == [True, False, True]

    def test_zero_load(self, three_edge_net):
        assert not used_edges(three_edge_net, [0.0, 0.0, 0.0], 0.0).any()

    def test_load_at_the_tolerance_is_unused(self, three_edge_net):
        assert used_edges(three_edge_net, [1e-9, 2e-9, 0.0], 1e-9).tolist() == [False, True, False]

    def test_monotone_in_tolerance(self, three_edge_net):
        rng = np.random.default_rng(11)
        for _ in range(40):
            w = rng.uniform(0.0, 1e-6, size=3)
            t1, t2 = sorted(rng.uniform(0.0, 1e-6, size=2))
            assert (used_edges(three_edge_net, w, t2) <= used_edges(three_edge_net, w, t1)).all()

    def test_any_leading_shape_row_by_row(self, three_edge_net):
        w = np.random.default_rng(12).uniform(0.0, 2e-9, size=(4, 5, 3))
        mask = used_edges(three_edge_net, w, 1e-9)
        assert mask.shape == (4, 5, 3)
        for i, j in np.ndindex(4, 5):
            assert np.array_equal(mask[i, j], used_edges(three_edge_net, w[i, j], 1e-9))

    def test_negative_tolerance_rejected(self, three_edge_net):
        with pytest.raises(ValueError):
            used_edges(three_edge_net, [1.0, 0.0, 0.0], -1.0)

    @pytest.mark.parametrize("loads", [[1.0, 0.0], [[1.0, 0.0, 0.0, 1.0]], 1.0])
    def test_loads_need_one_entry_per_edge(self, three_edge_net, loads):
        with pytest.raises(NetworkError, match="load vector has shape"):
            used_edges(three_edge_net, loads, 1e-9)


class TestUnderlyingGraph:
    def test_three_edge_reconstruction(self, three_edge_net):
        g = underlying_graph(three_edge_net)
        # origin, destination, and the junction where e2/e3 meet e1
        assert g.n_nodes == 3
        tails = {e: t for t, h, e in g.edges}
        heads = {e: h for t, h, e in g.edges}
        assert tails["e2"] == tails["e3"] == g.origin
        assert heads["e2"] == heads["e3"] == tails["e1"]
        assert heads["e1"] == g.destination

    def test_wheatstone_reconstruction(self):
        g = underlying_graph(wheatstone_network())
        assert g.n_nodes == 4

    def test_self_loop_rejected(self):
        # route [a] forces head(a)=destination while [a, b] forces b: d -> d
        with pytest.raises(NetworkError):
            underlying_graph(Network(["a", "b"], [["a"], ["a", "b"]]))


class TestSeriesParallel:
    def test_three_edge_is_sp(self, three_edge_net):
        assert is_series_parallel(three_edge_net)

    def test_single_edge_is_sp(self):
        assert is_series_parallel(Network(["a"], [["a"]]))

    def test_wheatstone_is_not_sp(self):
        assert not is_series_parallel(wheatstone_network())

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(3)
        nets = [
            (["e1", "e2", "e3"], [["e2", "e1"], ["e3", "e1"]]),
            (["oa", "ob", "ad", "bd", "ab"], [["oa", "ad"], ["ob", "bd"], ["oa", "ab", "bd"]]),
            (["a", "b", "c"], [["a"], ["b", "c"]]),
        ]
        for edges, routes in nets:
            base = is_series_parallel(Network(edges, routes))
            for _ in range(5):
                perm = list(rng.permutation(len(edges)))
                renames = {edges[i]: f"x{k}" for k, i in enumerate(perm)}
                new_edges = [renames[e] for e in edges]
                new_routes = [[renames[e] for e in r] for r in routes]
                assert is_series_parallel(Network(new_edges, new_routes)) == base


class TestRowGroups:
    @pytest.mark.parametrize(
        "n_rows, n_cols, p",
        [(0, 3, 0.5), (1, 2, 0.5), (40, 1, 0.5), (300, 3, 0.5), (500, 9, 0.3), (200, 70, 0.5),
         (300, 130, 0.01), (50, 64, 0.0)],
    )
    def test_matches_dict_grouping(self, n_rows, n_cols, p):
        # same groups, in order of first appearance, rows in increasing order
        mask = np.random.default_rng(n_cols).random((n_rows, n_cols)) < p
        got = list(row_groups(mask))
        want = list(reference_row_groups(mask))
        assert len(got) == len(want)
        for (pattern, rows), (ref_pattern, ref_rows) in zip(got, want):
            assert np.array_equal(pattern, ref_pattern)
            assert np.array_equal(rows, ref_rows)

    def test_patterns_beyond_64_columns_stay_apart(self):
        # rows that differ only in columns 64 and up form groups of their own
        mask = np.zeros((4, 70), dtype=bool)
        mask[1, 64] = mask[2, 69] = mask[3, 64] = True
        assert [rows.tolist() for _, rows in row_groups(mask)] == [[0], [1, 3], [2]]

    @pytest.mark.parametrize(
        "mask",
        [
            np.ones((7, 3), dtype=bool),
            np.zeros((5, 4), dtype=bool),
            np.array([[True, False, True]]),
            np.tile(np.arange(70) % 3 == 0, (6, 1)),
        ],
        ids=["all-true", "all-false", "one-row", "uniform-70-columns"],
    )
    def test_uniform_mask_is_one_group_of_every_row(self, mask):
        got = list(row_groups(mask))
        assert len(got) == 1
        (pattern, rows), ((ref_pattern, ref_rows),) = got[0], list(reference_row_groups(mask))
        assert np.array_equal(pattern, ref_pattern) and np.array_equal(pattern, mask[0])
        assert np.array_equal(rows, ref_rows)
        assert rows.tolist() == list(range(len(mask)))

    def test_zero_row_mask_yields_nothing(self):
        assert list(row_groups(np.zeros((0, 5), dtype=bool))) == []

    def test_first_row_differing_only_in_last_column(self):
        # the uniform check must look at every column, the last one included
        mask = np.zeros((5, 70), dtype=bool)
        mask[0, -1] = True
        got = [(p.tolist(), rows.tolist()) for p, rows in row_groups(mask)]
        want = [(p.tolist(), rows.tolist()) for p, rows in reference_row_groups(mask)]
        assert got == want
        assert [rows for _, rows in got] == [[0], [1, 2, 3, 4]]


class TestRowReductions:
    @pytest.mark.parametrize("n_cols", range(1, 10))
    def test_match_numpy_bit_for_bit(self, n_cols):
        # 1200 rows take the column loop of every function up to 8 columns
        rng = np.random.default_rng(n_cols)
        a = rng.normal(size=(1200, n_cols)) * 10.0 ** rng.integers(-3, 4, size=(1200, 1))
        # forced ties: copy one column onto others in some rows, and rows of one value
        ties = rng.random((1200, n_cols)) < 0.3
        a = np.where(ties, a[:, :1], a)
        a[::7] = 2.5
        a[3::11, -1] = 0.0
        a[5::13, 0] = -0.0
        # and rows of zeros in every pattern of signs
        signs = np.array(list(itertools.product((0.0, -0.0), repeat=n_cols)))
        a = np.concatenate([a, signs])
        for got, want in (
            (row_min(a), np.minimum.reduce(a, axis=1)),
            (row_max(a), np.maximum.reduce(a, axis=1)),
            (row_any(a > 0.0), (a > 0.0).any(axis=1)),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert row_min(a[:0]).shape == (0,)

    @pytest.mark.parametrize("n_cols", range(1, 10))
    def test_sum_matches_numpy_bit_for_bit(self, n_cols):
        # rows of zeros in every pattern of signs first, then rows of mixed
        # magnitudes and signs that cancel; the loop runs from 64 rows a
        # column, for at most 7 columns, so the row counts straddle it
        signs = np.array(list(itertools.product((0.0, -0.0), repeat=n_cols)))
        rng = np.random.default_rng(100 + n_cols)
        a = rng.normal(size=(1200, n_cols)) * 10.0 ** rng.integers(-12, 12, size=(1200, n_cols))
        a[::5, -1] = -a[::5, 0]
        a[1::9, 0] = -0.0
        a[2::9] *= 0.0
        a = np.concatenate([signs, a])
        for n in (64 * n_cols - 1, 64 * n_cols, len(a)):
            got, want = row_sum(a[:n]), np.add.reduce(a[:n], axis=1)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert row_sum(a[:0]).shape == (0,)
