"""Peeling over instance arrays: one batch peel and one sequential peel.

Every density notion is a density over *instances*: an ``(m, r)`` int64
array whose rows are node tuples — edges (r = 2), h-cliques (r = h) or
ψ-instances (r = |V_ψ|); ``alldense.notion_instances`` lists them. The
density of a node set S is the (weighted) number of instances inside S
over |S|, and a node's instance degree is the (weighted) number of
instances that contain it.

``charikar_peel`` gives the lower bound ρ̃ that prunes each sampled world
to its ⌈ρ̃⌉-core before the exact flow computation (Algorithm 1, Line 5).
It is the batch peel of Bahmani, Kumar & Vassilvitskii (PVLDB'12) at
ε = 0, written as numpy passes over the instance array.

``instance_peel`` is the sequential min-degree peel. Its best suffix is
the achieved lower bound and witness of the density search and of the
EDS baseline; its removal order is kClist's degeneracy order; the
running max of its popped degrees gives core numbers (Batagelj–
Zaversnik), which drive the heuristic of §III-C.
"""
from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np

from .graph import degrees, edge_mask


def charikar_peel(instances: np.ndarray, n: int) -> tuple[Fraction, set[int]]:
    """Batch peel; returns (best density, node set achieving it).

    Each pass takes the live node set S (m_S instances inside, n_S nodes,
    nodes in no live instance dropped) and removes every node whose
    instance degree in S is at most r·m_S/n_S, the average degree. The
    densest S seen is kept, compared exactly by integer
    cross-multiplication.

    The returned density is an *achieved* density, hence a valid lower
    bound ρ̃ ≤ ρ*, and ρ̃ ≥ ρ*/r: every node of a densest set has degree
    ≥ ρ* inside it, so the pass that first removes one of its nodes
    peels an S with r·ρ(S) ≥ ρ*. The minimum-degree node is always
    removed, so there are at most n passes (a path needs n/2); sampled
    biomine_lite worlds take 9–11. Each pass is an O(n + r·m_S) bincount.
    """
    inst = np.asarray(instances, dtype=np.int64)
    if inst.size == 0:
        return Fraction(0), set()
    r = inst.shape[1]
    deg = degrees(inst, n)
    best_m, best_n, best_alive = 0, 1, deg > 0
    while len(inst):
        m_s, n_s = len(inst), int(np.count_nonzero(deg))
        if m_s * best_n > best_m * n_s:
            best_m, best_n, best_alive = m_s, n_s, deg > 0
        inst = inst[edge_mask(inst, deg * n_s > r * m_s)]
        deg = degrees(inst, n)
    return Fraction(best_m, best_n), set(np.flatnonzero(best_alive).tolist())


def instance_peel(
    instances: np.ndarray, n: int, weights: np.ndarray | None = None
) -> tuple[Fraction, set[int], list[int], list[Fraction], list[int]]:
    """Sequential min-degree peel over (optionally weighted) instances.

    ``weights`` gives each instance an integer weight (1 when omitted);
    degrees and densities are sums of those weights, kept exact in
    Python ints. Each step removes the node of least weighted degree,
    ties broken by the smaller id, with its instances.

    Returns ``(best_density, best_suffix_set, removal_order,
    density_after_each_removal, degree_at_each_removal)``. The degree
    trace gives core numbers for free: cn(v) = running max of the popped
    degree up to v's removal (Batagelj–Zaversnik). Nodes not in any
    instance are treated as removed up front (they can never be in a
    densest subgraph with positive density).
    """
    inst = np.asarray(instances, dtype=np.int64)
    if inst.size == 0:
        return Fraction(0), set(), [], [], []
    w = (np.ones(len(inst), dtype=np.int64) if weights is None
         else np.asarray(weights, dtype=np.int64))
    rows, w = inst.tolist(), w.tolist()
    inst_of: list[list[int]] = [[] for _ in range(n)]
    deg = [0] * n
    for i, (nodes, wi) in enumerate(zip(rows, w)):
        for v in nodes:
            inst_of[v].append(i)
            deg[v] += wi
    alive = [v for v in range(n) if inst_of[v]]
    heap = [(deg[v], v) for v in alive]
    heapq.heapify(heap)
    total, n_alive = sum(w), len(alive)
    best, best_step = Fraction(total, n_alive), 0
    inst_alive = [True] * len(rows)
    removed = [False] * n
    order: list[int] = []
    densities: list[Fraction] = []
    pop_degrees: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        pop_degrees.append(d)
        n_alive -= 1
        for i in inst_of[v]:
            if inst_alive[i]:
                inst_alive[i] = False
                total -= w[i]
                for u in rows[i]:
                    if u != v and not removed[u]:
                        deg[u] -= w[i]
                        heapq.heappush(heap, (deg[u], u))
        dens = Fraction(total, n_alive) if n_alive else Fraction(0)
        densities.append(dens)
        if dens > best:
            best, best_step = dens, len(order)
    best_set = set(alive).difference(order[:best_step])
    return best, best_set, order, densities, pop_degrees
