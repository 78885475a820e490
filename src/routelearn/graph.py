"""Two-terminal route networks: incidence, used edges, series-parallel tests."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import NetworkError


class Network:
    """Directed two-terminal network described by an explicit route list.

    Edges are string identifiers. Every route is an ordered sequence of edge
    ids from the origin to the destination. The incidence matrix has one row
    per edge and one column per route; entry (e, r) is 1 iff edge e lies on
    route r. Instances are immutable after construction and safe to share.
    """

    def __init__(self, edges: Sequence[str], routes: Sequence[Sequence[str]]):
        edge_ids = tuple(str(e) for e in edges)
        if not edge_ids:
            raise NetworkError("network needs at least one edge")
        if len(edge_ids) != len(set(edge_ids)):
            raise NetworkError("duplicate edge identifiers")
        route_list = tuple(tuple(str(e) for e in r) for r in routes)
        if not route_list:
            raise NetworkError("network needs at least one route")
        index = {e: i for i, e in enumerate(edge_ids)}
        for k, route in enumerate(route_list):
            if not route:
                raise NetworkError(f"route {k} is empty")
            if len(set(route)) != len(route):
                raise NetworkError(f"route {k} repeats an edge")
            for e in route:
                if e not in index:
                    raise NetworkError(f"route {k} uses unknown edge {e!r}")
        covered = {e for r in route_list for e in r}
        unused = [e for e in edge_ids if e not in covered]
        if unused:
            raise NetworkError(f"edges not on any route: {unused}")

        incidence = np.zeros((len(edge_ids), len(route_list)))
        for k, route in enumerate(route_list):
            for e in route:
                incidence[index[e], k] = 1.0
        incidence.setflags(write=False)

        self.edge_ids = edge_ids
        self.routes = route_list
        self.incidence = incidence

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    def __repr__(self) -> str:
        return f"Network(edges={list(self.edge_ids)!r}, routes={len(self.routes)})"


def used_edges(network: Network, loads, tol: float) -> np.ndarray:
    """Mask of the edges that carry load strictly above `tol`, the used-edge rule.

    `loads` has the edges on its last axis and any leading shape; so has the mask.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    w = np.asarray(loads, dtype=float)
    if w.shape[-1:] != (network.n_edges,):
        raise NetworkError(f"load vector has shape {w.shape}, not (..., {network.n_edges})")
    return w > tol


def row_groups(mask: np.ndarray):
    """Rows of a boolean matrix grouped by pattern: yields (pattern, row indices).

    Block computations use it to share one stacked solve among the rows
    that use the same edges or routes. Groups come in the order of their
    first row, and each lists its rows in increasing order. When every row
    equals the first, as in most stages of a settled block, the one group
    comes back at once, without a sort.
    """
    if len(mask) and (mask == mask[0]).all():
        yield mask[0], np.arange(len(mask))
        return
    packed = np.packbits(mask, axis=1)
    order = np.lexsort(packed.T)  # stable, so each group's rows stay in order
    ranked = packed[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = first.nonzero()[0]
    groups = np.split(order, starts[1:])
    for g in np.argsort(order[starts]):
        yield mask[groups[g][0]], groups[g]


# Row reductions over the short second axis of an (n, k) array, k being a
# network's routes, edges or states. numpy's reduction pays a fixed cost a
# row, a loop over the columns one a column, so the loop wins from some
# number of rows a column. tools/kernel_crossover.py measures where (the
# median of 9 alternating rounds, 2-core host, numpy 2.4.6); the loop wins
# from about
#   minimum, maximum, k = 2 to 8:  8 to 13 rows a column (threshold 16);
#   or (bool), k = 2 to 5:         16 to 51 rows a column (threshold 128);
#   add, k = 2 to 7:               32 to 51 rows a column (threshold 64;
#                                  k = 1 only from 512).
# Below its threshold each function takes numpy's reduction, and so does
# any array of more than 8 columns, or more than 7 for the sum. Up to 8
# columns numpy takes a row's minimum or maximum in column order, as the
# loop does, so both give the same bits, down to the sign of a zero
# (checked on every sign pattern of zeros); from 9 columns numpy's order,
# and with it that sign, can differ. numpy sums up to 7 columns of a row
# in column order from +0.0, so the sum's loop starts from +0.0 too, and a
# row of zeros sums to +0.0 whatever their signs; from 8 columns numpy
# unrolls a C-ordered row's sum pairwise, which changes its bits. numpy's
# argmin and argmax stay: along a short axis they cost about a fifth of
# its minimum, and a column loop beat them only for two columns.


def _columnwise(
    ufunc, a: np.ndarray, rows_per_column: int, columns: int = 8, start=None
) -> np.ndarray:
    if a.shape[1] > columns or len(a) < rows_per_column * a.shape[1]:
        return ufunc.reduce(a, axis=1)
    out = a[:, 0].copy() if start is None else ufunc(start, a[:, 0])
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def row_min(a: np.ndarray) -> np.ndarray:
    """np.minimum.reduce(a, axis=1) of a 2-D array with at least one column."""
    return _columnwise(np.minimum, a, 16)


def row_max(a: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(a, axis=1) of a 2-D array with at least one column."""
    return _columnwise(np.maximum, a, 16)


def row_any(a: np.ndarray) -> np.ndarray:
    """a.any(axis=1) of a 2-D boolean array with at least one column."""
    return _columnwise(np.logical_or, a, 128)


def row_sum(a: np.ndarray) -> np.ndarray:
    """np.add.reduce(a, axis=1) of a 2-D float array with at least one column."""
    return _columnwise(np.add, a, 64, columns=7, start=0.0)


def series_parallel_reducible(edges: Iterable[tuple[int, int]], origin, destination) -> bool:
    """Greedy two-terminal reduction of a directed multigraph.

    Merges parallel edges (identical tail and head) and contracts interior
    nodes with exactly one incoming and one outgoing edge. Returns True iff
    the graph reduces to the single edge origin -> destination. Reduction
    order does not affect the outcome for these moves.
    """
    succ: dict = {}
    pred: dict = {}
    for t, h in edges:  # sets of neighbours, so parallel edges merge as they arrive
        succ.setdefault(t, set()).add(h)
        pred.setdefault(h, set()).add(t)
    # a contraction changes only the out-edges of u and the in-edges of x,
    # so only those two nodes can become contractible after it
    pending = set(pred) - {origin, destination}
    while pending:
        v = pending.pop()
        ins, outs = pred.get(v, set()), succ.get(v, set())
        if len(ins) == len(outs) == 1 and ins != outs:  # u -> v -> u would leave a self-loop
            (u,), (x,) = ins, outs
            del pred[v], succ[v]
            succ[u].discard(v)
            pred[x].discard(v)
            succ[u].add(x)
            pred[x].add(u)
            pending |= {u, x} - {origin, destination}
    return {(t, h) for t, hs in succ.items() for h in hs} == {(origin, destination)}


def is_series_parallel(network: Network) -> bool:
    """True iff the graph induced by the routes is two-terminal series-parallel.

    Each edge contributes a tail and a head symbol; symbols are merged when
    routes force them to coincide (consecutive edges share a node, all routes
    start at the origin and end at the destination), and each merged class is
    a node, named by its union-find root.
    """
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for route in network.routes:
        union(("t", route[0]), "origin")
        union(("h", route[-1]), "destination")
        for a, b in zip(route, route[1:]):
            union(("h", a), ("t", b))

    if find("origin") == find("destination"):
        raise NetworkError("origin and destination coincide; not two-terminal")
    edges = [(find(("t", e)), find(("h", e))) for e in network.edge_ids]
    for e, (tail, head) in zip(network.edge_ids, edges):
        if tail == head:
            raise NetworkError(f"edge {e!r} collapses to a self-loop")
    return series_parallel_reducible(edges, find("origin"), find("destination"))
