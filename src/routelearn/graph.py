"""Two-terminal route networks: incidence, used edges, series-parallel tests."""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class TwoTerminalGraph:
    """Multigraph reconstructed from a route list, nodes numbered 0..n-1."""

    n_nodes: int
    origin: int
    destination: int
    edges: tuple[tuple[int, int, str], ...]  # (tail, head, edge id)


def underlying_graph(network: Network) -> TwoTerminalGraph:
    """Rebuild the two-terminal multigraph that the route list induces.

    Each edge contributes a tail and a head symbol; symbols are merged when
    routes force them to coincide (consecutive edges share a node, all routes
    start at the origin and end at the destination).
    """
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for route in network.routes:
        union(("t", route[0]), "origin")
        union(("h", route[-1]), "destination")
        for a, b in zip(route, route[1:]):
            union(("h", a), ("t", b))

    if find("origin") == find("destination"):
        raise NetworkError("origin and destination coincide; not two-terminal")

    node_of: dict = {}

    def node_id(symbol) -> int:
        root = find(symbol)
        if root not in node_of:
            node_of[root] = len(node_of)
        return node_of[root]

    origin = node_id("origin")
    destination = node_id("destination")
    out = []
    for e in network.edge_ids:
        tail = node_id(("t", e))
        head = node_id(("h", e))
        if tail == head:
            raise NetworkError(f"edge {e!r} collapses to a self-loop")
        out.append((tail, head, e))
    return TwoTerminalGraph(len(node_of), origin, destination, tuple(out))


def series_parallel_reducible(edges: Iterable[tuple[int, int]], origin, destination) -> bool:
    """Greedy two-terminal reduction of a directed multigraph.

    Merges parallel edges (identical tail and head) and contracts interior
    nodes with exactly one incoming and one outgoing edge. Returns True iff
    the graph reduces to the single edge origin -> destination. Reduction
    order does not affect the outcome for these moves.
    """
    work = [(e[0], e[1]) for e in edges]
    while True:
        if len(work) == 1:
            return work[0] == (origin, destination)
        deduped = list(dict.fromkeys(work))
        if len(deduped) != len(work):
            work = deduped
            continue
        indeg: dict = {}
        outdeg: dict = {}
        for t, h in work:
            outdeg[t] = outdeg.get(t, 0) + 1
            indeg[h] = indeg.get(h, 0) + 1
        contracted = False
        for i, (t, h) in enumerate(work):
            v = h
            if v in (origin, destination):
                continue
            if indeg.get(v, 0) == 1 and outdeg.get(v, 0) == 1:
                j = next(k for k, (t2, _) in enumerate(work) if t2 == v)
                u, x = t, work[j][1]
                if u == x:  # would create a self-loop; leave this node alone
                    continue
                work = [e for k, e in enumerate(work) if k not in (i, j)]
                work.append((u, x))
                contracted = True
                break
        if not contracted:
            return False


def is_series_parallel(network: Network) -> bool:
    """True iff the graph induced by the routes is two-terminal series-parallel."""
    g = underlying_graph(network)
    return series_parallel_reducible(
        [(t, h) for t, h, _ in g.edges], g.origin, g.destination
    )
