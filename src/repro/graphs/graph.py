"""Compact deterministic-graph helpers over numpy edge arrays.

An (undirected, simple) graph is represented as an ``(m, 2)`` int64 array
of edges with ``u != v``. Node ids are non-negative ints below 2**31;
most kernels first :func:`relabel` to a compact ``0..n-1`` space. The
helpers index arrays by node id, so their memory grows with the largest
id, not with the number of nodes (``UncertainGraph`` ids are ``0..n-1``).
"""
from __future__ import annotations

from collections.abc import Collection

import numpy as np

MAX_NODE_ID = 2**31 - 1


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Return edges with u < v per row, duplicates and self-loops removed.

    Output is sorted lexicographically, so it is a canonical form: two
    edge lists describing the same simple graph canonicalize identically.
    Each edge is keyed by the scalar ``lo·base + hi``, whose numeric order
    is the lexicographic order of ``(lo, hi)``.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    if len(e) == 0:
        return e
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    if lo.min() < 0 or hi.max() > MAX_NODE_ID:
        raise ValueError(f"node ids must lie in [0, {MAX_NODE_ID}]")
    base = int(hi.max()) + 1
    key = np.unique(lo * base + hi)
    return np.stack([key // base, key % base], axis=1)


def nodes_of(edges: np.ndarray) -> np.ndarray:
    """Sorted unique node ids appearing in ``edges``."""
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(e)


def relabel(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relabel node ids to ``0..n-1``, keeping their order.

    Returns ``(compact_edges, id_map)`` where ``id_map[i]`` is the
    original id of compact node ``i``.
    """
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    present = np.zeros(int(e.max()) + 1, dtype=bool)
    present[e] = True
    compact_of = np.cumsum(present, dtype=np.int64) - 1  # id → compact id
    return compact_of[e], np.flatnonzero(present)


def degrees(
    rows: np.ndarray, n: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Degree vector of compact nodes ``0..n-1`` over ``(m, r)`` rows
    (edges or instances): each row adds its weight (1 when ``weights`` is
    omitted) to each of its nodes. Weighted sums stay exact int64."""
    rows = np.asarray(rows, dtype=np.int64)
    if weights is None:
        return np.bincount(rows.ravel(), minlength=n)
    deg = np.zeros(n, dtype=np.int64)  # bincount would sum float weights
    np.add.at(deg, rows, np.asarray(weights, dtype=np.int64)[:, None])
    return deg


def edge_mask(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row mask of the ``(m, r)`` rows (edges, or instances of any width)
    whose nodes are all set in ``mask``."""
    keep = mask[rows[:, 0]]
    for j in range(1, rows.shape[1]):
        keep &= mask[rows[:, j]]
    return keep


def induced_mask(
    edges: np.ndarray, node_set: Collection[int] | np.ndarray
) -> np.ndarray:
    """Row mask of the edges with both endpoints in ``node_set``."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(e) == 0:
        return np.zeros(0, dtype=bool)
    mask = np.zeros(int(e.max()) + 1, dtype=bool)
    ids = np.fromiter(node_set, dtype=np.int64, count=len(node_set))
    mask[ids[(ids >= 0) & (ids < len(mask))]] = True  # other ids touch no edge
    return edge_mask(e, mask)


def adjacency(edges: np.ndarray, n: int) -> list[np.ndarray]:
    """Sorted neighbor arrays per compact node (for set-intersections)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [np.array(sorted(a), dtype=np.int64) for a in adj]


def adjacency_sets(edges: np.ndarray, n: int) -> list[set[int]]:
    """Neighbor sets per compact node (for membership tests)."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(int(v))
        adj[v].add(int(u))
    return adj


def induced_edge_count(edges: np.ndarray, node_set: Collection[int]) -> int:
    """Number of edges with both endpoints in ``node_set``."""
    return int(np.count_nonzero(induced_mask(edges, node_set)))


def induced_subgraph(edges: np.ndarray, node_set: Collection[int]) -> np.ndarray:
    """Edges with both endpoints in ``node_set`` (original labels kept)."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return e[induced_mask(e, node_set)]
