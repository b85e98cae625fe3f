"""Peeling algorithms: batch edge peel and instance-based peels.

``charikar_peel`` gives the lower bound ρ̃ that prunes each sampled world
to its ⌈ρ̃⌉-core before the exact flow computation (Algorithm 1, Line 5).
It is the batch peel of Bahmani, Kumar & Vassilvitskii (PVLDB'12) at
ε = 0, written as numpy passes over the edge array.

``instance_peel`` generalizes to h-clique / pattern density: instances
are node tuples (the h-cliques or ψ-instances); the density of a node
set is (#instances fully inside) / |set|. It also powers the
(k, h)-core / (k, ψ)-core (``instance_core``) and the heuristic
dense-subgraph method of §III-C.
"""
from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np

from .graph import edge_mask


def charikar_peel(edges: np.ndarray, n: int) -> tuple[Fraction, set[int]]:
    """Batch peel; returns (best density, node set achieving it).

    Each pass takes the live node set S (m_S edges inside, n_S nodes,
    isolated nodes dropped) and removes every node whose degree in S is
    at most 2·m_S/n_S, the average degree. The densest S seen is kept,
    compared exactly by integer cross-multiplication.

    The returned density is an *achieved* density, hence a valid lower
    bound ρ̃ ≤ ρ*, and ρ̃ ≥ ρ*/2: every node of a densest set has degree
    ≥ ρ* inside it, so the pass that first removes one of its nodes
    peels an S with 2·ρ(S) ≥ ρ*. The minimum-degree node is always
    removed, so there are at most n passes (a path needs n/2); sampled
    biomine_lite worlds take 9–11. Each pass is an O(n + m_S) bincount.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(e) == 0:
        return Fraction(0), set()
    deg = np.bincount(e.ravel(), minlength=n)
    best_m, best_n, best_alive = 0, 1, deg > 0
    while len(e):
        m_s, n_s = len(e), int(np.count_nonzero(deg))
        if m_s * best_n > best_m * n_s:
            best_m, best_n, best_alive = m_s, n_s, deg > 0
        e = e[edge_mask(e, deg * n_s > 2 * m_s)]
        deg = np.bincount(e.ravel(), minlength=n)
    return Fraction(best_m, best_n), set(np.flatnonzero(best_alive).tolist())


def instance_peel(
    instances: list[tuple[int, ...]], n: int
) -> tuple[Fraction, set[int], list[int], list[Fraction], list[int]]:
    """Min-instance-degree peel for clique/pattern density.

    Returns ``(best_density, best_suffix_set, removal_order,
    density_after_each_removal, degree_at_each_removal)``. The degree
    trace gives core numbers for free: cn(v) = running max of the popped
    degree up to v's removal (Batagelj–Zaversnik). Nodes not in any
    instance are treated as removed up front (they can never be in a
    densest subgraph with positive density).
    """
    inst_of: list[list[int]] = [[] for _ in range(n)]
    for i, inst in enumerate(instances):
        for v in inst:
            inst_of[v].append(i)
    deg = np.array([len(inst_of[v]) for v in range(n)], dtype=np.int64)
    alive = deg > 0
    n_alive = int(alive.sum())
    if not instances or n_alive == 0:
        return Fraction(0), set(), [], [], []
    inst_alive = np.ones(len(instances), dtype=bool)
    n_inst = len(instances)
    heap = [(int(deg[v]), int(v)) for v in range(n) if alive[v]]
    heapq.heapify(heap)
    best = Fraction(n_inst, n_alive)
    best_set = {v for v in range(n) if alive[v]}
    cur_set = set(best_set)
    removal_order: list[int] = []
    densities: list[Fraction] = []
    pop_degrees: list[int] = []
    removed = np.zeros(n, dtype=bool)
    while n_alive > 0 and heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        removal_order.append(v)
        pop_degrees.append(int(d))
        cur_set.discard(v)
        n_alive -= 1
        for i in inst_of[v]:
            if inst_alive[i]:
                inst_alive[i] = False
                n_inst -= 1
                for w in instances[i]:
                    if w != v and not removed[w]:
                        deg[w] -= 1
                        heapq.heappush(heap, (int(deg[w]), int(w)))
        if n_alive > 0:
            dens = Fraction(n_inst, n_alive)
            densities.append(dens)
            if dens > best:
                best = dens
                best_set = set(cur_set)
        else:
            densities.append(Fraction(0))
    return best, best_set, removal_order, densities, pop_degrees


def instance_core(
    instances: list[tuple[int, ...]], n: int, k: int
) -> set[int]:
    """(k, ·)-core w.r.t. instance degree: maximal node set where every
    node is contained in ≥ k surviving instances (instances count only
    if all their nodes survive)."""
    inst_of: list[list[int]] = [[] for _ in range(n)]
    for i, inst in enumerate(instances):
        for v in inst:
            inst_of[v].append(i)
    deg = np.array([len(inst_of[v]) for v in range(n)], dtype=np.int64)
    alive = deg > 0
    inst_alive = np.ones(len(instances), dtype=bool)
    queue = [v for v in range(n) if alive[v] and deg[v] < k]
    for v in queue:
        alive[v] = False
    while queue:
        v = queue.pop()
        for i in inst_of[v]:
            if inst_alive[i]:
                inst_alive[i] = False
                for w in instances[i]:
                    if w != v and alive[w]:
                        deg[w] -= 1
                        if deg[w] < k:
                            alive[w] = False
                            queue.append(w)
    return {v for v in range(n) if alive[v]}
