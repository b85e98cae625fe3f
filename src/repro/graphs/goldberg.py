"""Exact maximum-density computation via Goldberg-style binary search.

All three density notions share one skeleton: a flow network
parameterized by a rational guess α = a/b, built with *integer*
capacities (everything scaled by b, the denominator). A subgraph denser
than α exists iff the min s-t cut is strictly below the total capacity
out of s; the residual source side then witnesses such a subgraph.

Distinct achievable densities are fractions with denominator ≤ n, so two
of them differ by at least 1/n²; the search keeps an *achieved* lower
bound (with witness) and a proven upper bound, and stops once the gap is
below 1/n² — at that point the lower bound IS the optimum ρ*.

Network builders (paper references):
* edge density       — Goldberg 1984 / Chang & Qiao WWW'20 (Example 4)
* h-clique density   — Algorithm 6 (Mitzenmacher et al. KDD'15)
* pattern density    — Algorithm 7 (Fang et al. VLDB'19, grouped instances)
* weighted edges     — Zou 2013 expected-density baseline (integer weights)
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from .graph import degrees
from .maxflow import FlowNetwork

# A builder returns (net, s, t, v_node_ids) where v_node_ids[i] is the
# network node id of graph node i; plus the total capacity out of s.
Builder = Callable[[Fraction], tuple[FlowNetwork, int, int, list[int], int]]


def build_edge_network(
    edges: np.ndarray, n: int, alpha: Fraction, weights: np.ndarray | None = None
) -> tuple[FlowNetwork, int, int, list[int], int]:
    """Goldberg network for (weighted) edge density, scaled to integers.

    Nodes: s=0, t=1, graph node v ↦ 2+v. Capacities (×b for α = a/b):
    s→v: wdeg(v)·b, u↔v: w_e·b, v→t: 2a·(w scale built into a).
    """
    a, b = alpha.numerator, alpha.denominator
    w = weights if weights is not None else np.ones(len(edges), dtype=np.int64)
    net = FlowNetwork(n + 2)
    s, t = 0, 1
    wdeg = degrees(edges, n, weights)
    total = 0
    for v in range(n):
        if wdeg[v] > 0:
            net.add_edge(s, 2 + v, int(wdeg[v]) * b)
            total += int(wdeg[v]) * b
        net.add_edge(2 + v, t, 2 * a)
    for (u, v), we in zip(edges, w):
        net.add_undirected(2 + int(u), 2 + int(v), int(we) * b)
    return net, s, t, [2 + v for v in range(n)], total


def build_clique_network(
    n: int,
    cliques: list[tuple[int, ...]],
    lambdas: list[tuple[int, ...]],
    alpha: Fraction,
) -> tuple[FlowNetwork, int, int, list[int], int]:
    """Algorithm 6: flow network for h-clique density, scaled to integers.

    Nodes: s, t, one per graph node, one per (h−1)-clique λ ∈ Λ.
    s→v: deg(v,h)·b; v→t: h·a; λ→v (v∈λ): ∞; v→λ: b if λ∪{v} is an
    h-clique.
    """
    h = len(cliques[0]) if cliques else 2
    a, b = alpha.numerator, alpha.denominator
    clique_set = {frozenset(c) for c in cliques}
    deg = np.zeros(n, dtype=np.int64)
    for c in cliques:
        for v in c:
            deg[v] += 1
    n_net = 2 + n + len(lambdas)
    net = FlowNetwork(n_net)
    s, t = 0, 1
    vid = [2 + v for v in range(n)]
    lid = {lam: 2 + n + i for i, lam in enumerate(lambdas)}
    inf = (int(deg.sum()) * b + 2 * a * n + 1) * (h + 1)
    total = 0
    for v in range(n):
        if deg[v] > 0:
            net.add_edge(s, vid[v], int(deg[v]) * b)
            total += int(deg[v]) * b
        net.add_edge(vid[v], t, h * a)
    for lam in lambdas:
        li = lid[lam]
        lam_set = frozenset(lam)
        for v in lam:
            net.add_edge(li, vid[v], inf)
        # candidate extenders: nodes adjacent to all of λ
        for v in range(n):
            if v not in lam_set and (lam_set | {v}) in clique_set:
                net.add_edge(vid[v], li, b)
    return net, s, t, vid, total


def build_pattern_network(
    n: int,
    groups: dict[frozenset[int], int],
    pattern_size: int,
    alpha: Fraction,
) -> tuple[FlowNetwork, int, int, list[int], int]:
    """Algorithm 7: flow network for pattern density (grouped instances).

    Nodes: s, t, one per graph node, one per instance group λ'.
    s→v: deg(v,ψ)·b; v→t: |V_ψ|·a; v'→λ': |g|·b; λ'→v': |g|(|V_ψ|−1)·b.
    """
    a, b = alpha.numerator, alpha.denominator
    deg = np.zeros(n, dtype=np.int64)
    for nodeset, cnt in groups.items():
        for v in nodeset:
            deg[v] += cnt
    keys = sorted(groups, key=sorted)
    net = FlowNetwork(2 + n + len(keys))
    s, t = 0, 1
    vid = [2 + v for v in range(n)]
    total = 0
    for v in range(n):
        if deg[v] > 0:
            net.add_edge(s, vid[v], int(deg[v]) * b)
            total += int(deg[v]) * b
        net.add_edge(vid[v], t, pattern_size * a)
    for i, nodeset in enumerate(keys):
        li = 2 + n + i
        g = groups[nodeset]
        for v in nodeset:
            net.add_edge(vid[v], li, g * b)
            net.add_edge(li, vid[v], g * (pattern_size - 1) * b)
    return net, s, t, vid, total


def goldberg_search(
    builder: Builder,
    n: int,
    lo: Fraction,
    lo_witness: set[int],
    hi: Fraction,
    density_of: Callable[[set[int]], Fraction],
) -> tuple[Fraction, set[int]]:
    """Binary-search the maximum density; returns (ρ*, a densest witness).

    Invariants: ``lo`` is always an *achieved* density (witness kept),
    ``hi`` upper-bounds every achievable density. Stops when hi − lo <
    1/n² ≤ min gap between distinct achievable densities — at that point
    any density > lo would exceed hi, so lo = ρ* and the witness is a
    densest subgraph.
    """
    witness = set(lo_witness)
    if n < 2:
        return lo, witness
    gap = Fraction(1, n * n)
    while hi - lo >= gap:
        alpha = (lo + hi) / 2
        net, s, t, vid, total = builder(alpha)
        flow = net.max_flow(s, t)
        if flow < total:
            side = net.min_cut_source_side(s)
            cand = {v for v in range(n) if vid[v] in side}
            if not cand:
                raise RuntimeError(
                    f"cut below total capacity at alpha={alpha} left no "
                    "graph node on the source side"
                )
            dens = density_of(cand)
            if dens <= alpha:
                raise RuntimeError(
                    f"source side of the cut at alpha={alpha} has density "
                    f"{dens}, not above alpha"
                )
            witness, lo = cand, dens
        else:
            hi = alpha
    return lo, witness
