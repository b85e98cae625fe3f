"""h-clique listing (kClist-style, degeneracy ordering) and Λ.

Used by Algorithm 2 (all clique-densest subgraphs): the flow network has
one node per (h−1)-clique contained in an h-clique.
"""
from __future__ import annotations

import numpy as np

from .peeling import instance_peel


def list_cliques(edges: np.ndarray, n: int, h: int) -> list[tuple[int, ...]]:
    """All h-cliques as sorted node tuples. h >= 2; h=2 returns edges.

    kClist-style: orient edges along the degeneracy order and extend
    candidate sets by intersection, so work is bounded by the degeneracy.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    if edges.size == 0:
        return []
    if h == 2:
        return [tuple(sorted((int(u), int(v)))) for u, v in edges]
    order = instance_peel(edges, n)[2]  # degeneracy order
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(len(order))
    fwd: list[list[int]] = [[] for _ in range(n)]  # neighbors later in order
    for u, v in edges:
        u, v = int(u), int(v)
        if rank[u] < rank[v]:
            fwd[u].append(v)
        else:
            fwd[v].append(u)
    fwd_sets = [set(f) for f in fwd]
    out: list[tuple[int, ...]] = []

    def extend(base: list[int], cand: list[int]) -> None:
        if len(base) == h:
            out.append(tuple(sorted(base)))
            return
        for i, v in enumerate(cand):
            # cand is within the forward-neighborhood closure; adjacency
            # between v, w must be checked in either orientation.
            nxt = [w for w in cand[i + 1 :] if w in fwd_sets[v] or v in fwd_sets[w]]
            extend(base + [v], nxt)

    for u in range(n):
        extend([u], fwd[u])
    return out


def sub_cliques(cliques: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Λ: distinct (h−1)-cliques contained in the given h-cliques."""
    seen: set[tuple[int, ...]] = set()
    for cl in cliques:
        for i in range(len(cl)):
            seen.add(cl[:i] + cl[i + 1 :])
    return sorted(seen)
