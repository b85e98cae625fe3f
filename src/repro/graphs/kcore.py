"""k-core computation and degeneracy-style peeling on compact graphs.

These run per sampled possible world inside Spark tasks. ``k_core_nodes``
works in numpy passes over the edge array: each pass drops every node
whose ``bincount`` degree is below k, then drops the edges those nodes
touch, until a pass drops nothing. A pass costs O(n + m); the pass count
is the longest chain of removals that each wait on the one before: 4–6
on sampled biomine_lite worlds, the tail length for a clique with a
long path attached.
"""
from __future__ import annotations

import numpy as np

from .graph import degrees, edge_mask


def k_core_nodes(edges: np.ndarray, n: int, k: int) -> np.ndarray:
    """Node ids (compact) of the k-core; empty array if none survive."""
    if k <= 0:
        return np.arange(n, dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    alive = np.ones(n, dtype=bool)  # isolated nodes have degree 0 < k
    while True:
        drop = alive & (np.bincount(e.ravel(), minlength=n) < k)
        if not drop.any():
            return np.flatnonzero(alive).astype(np.int64)
        alive &= ~drop
        e = e[edge_mask(e, alive)]


def core_numbers(edges: np.ndarray, n: int) -> np.ndarray:
    """Core number per node (Batagelj–Zaversnik bucket peeling)."""
    deg = degrees(edges, n)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(int(v))
        adj[v].append(int(u))
    order = np.argsort(deg, kind="stable")
    # bucket-queue peel
    import heapq

    core = np.zeros(n, dtype=np.int64)
    heap = [(int(deg[v]), int(v)) for v in order]
    heapq.heapify(heap)
    removed = np.zeros(n, dtype=bool)
    cur_deg = deg.copy()
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != cur_deg[v]:
            continue
        k = max(k, d)
        core[v] = k
        removed[v] = True
        for w in adj[v]:
            if not removed[w]:
                cur_deg[w] -= 1
                heapq.heappush(heap, (int(cur_deg[w]), int(w)))
    return core
