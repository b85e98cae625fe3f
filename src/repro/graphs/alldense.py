"""Enumerate ALL densest subgraphs of a deterministic graph.

Edge density follows Chang & Qiao (WWW'20): Goldberg network at α = ρ*,
residual graph under a max flow, SCC condensation, then every
*independent component set* (antichain of non-trivial SCCs intersecting
V) maps bijectively to a densest subgraph via C ∪ des(C) (Algorithm 3).
Clique density is Algorithm 2 (flow network of Algorithm 6) and pattern
density is Algorithm 4 (network of Algorithm 7) — same skeleton, Λ-nodes
added to the network. ``all_densest`` runs that skeleton once for every
notion over the ``(m, r)`` instance array of ``notion_instances``; only
the lister and the network builder depend on the notion.

Per-world convention (matches the paper's Table I accounting): a world
with no edge / no h-clique / no ψ-instance has maximum density 0 and
contributes NO densest subgraph.

Every result is exact; ``max_enum`` caps the (possibly exponential)
number of enumerated subgraphs — the ``truncated`` flag reports the cap
being hit. The maximum-sized densest subgraph (union of all densest
subgraphs, footnote 5 / Balalau et al.) is computed directly from the
SCCs without enumeration, so NDS never truncates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cliques import list_cliques, sub_cliques
from .goldberg import (
    build_clique_network,
    build_edge_network,
    build_pattern_network,
    goldberg_search,
)
from .graph import canonical_edges, degrees, edge_mask, relabel
from .kcore import k_core_nodes
from .patterns import PATTERNS, enumerate_instances, group_instances
from .peeling import charikar_peel, instance_peel
from .scc import condensation, descendants_bitsets, tarjan_scc

instance_core = k_core_nodes  # still patched by name in perfbench/spantrace.py


@dataclass
class DensestResult:
    """All densest subgraphs of one deterministic graph (original labels)."""

    rho: Fraction  # maximum density (0 ⇒ no dense structure at all)
    subgraphs: list[frozenset[int]]  # all densest node sets (maybe truncated)
    max_sized: frozenset[int]  # union of all densest subgraphs
    n_densest: int  # number enumerated (== len(subgraphs))
    truncated: bool = False
    core_nodes: int = 0  # pruned-core size (complexity reporting)


def _enumerate_from_residual(
    net, s: int, t: int, vid_of: dict[int, int], max_enum: int
) -> tuple[list[frozenset[int]], frozenset[int], bool]:
    """Shared tail of Algorithms 2/4 and the edge pipeline.

    ``vid_of`` maps network node id → graph node id for V-nodes.
    Returns (all densest node sets, max-sized densest, truncated).
    """
    arcs = net.residual_arcs()
    comp = tarjan_scc(net.n, arcs)
    n_comps, out = condensation(net.n, arcs, comp)
    cs, ct = comp[s], comp[t]
    # V-nodes per component; components of s and t are trivial (excluded).
    comp_nodes: list[list[int]] = [[] for _ in range(n_comps)]
    for net_id, g_id in vid_of.items():
        comp_nodes[comp[net_id]].append(g_id)
    nontrivial = [c for c in range(n_comps) if c != cs and c != ct]
    nontrivial_set = set(nontrivial)
    # Restrict the DAG to non-trivial components (Lemma 8: dropping the
    # SCCs of s and t cannot disconnect paths among the others).
    out_nt: list[set[int]] = [set() for _ in range(n_comps)]
    for c in nontrivial:
        out_nt[c] = {d for d in out[c] if d in nontrivial_set}
    des = descendants_bitsets(n_comps, out_nt)
    anc = [0] * n_comps
    for c in nontrivial:
        m = des[c]
        while m:
            low = m & -m
            anc[low.bit_length() - 1] |= 1 << c
            m ^= low
    # Max-sized densest subgraph: union of V-nodes over all non-trivial
    # components (every V-intersecting component is a singleton antichain).
    union_nodes = frozenset(
        v for c in nontrivial for v in comp_nodes[c]
    )
    # Candidates for antichain roots: components with V-nodes.
    cands = [c for c in nontrivial if comp_nodes[c]]
    results: list[frozenset[int]] = []
    truncated = False

    def closure_nodes(mask: int) -> frozenset[int]:
        nodes: set[int] = set()
        m = mask
        while m:
            low = m & -m
            c = low.bit_length() - 1
            nodes.update(comp_nodes[c])
            m ^= low
        return frozenset(nodes)

    # Algorithm 3, iterative (explicit stack): each step extends the
    # current antichain by one candidate and emits its closure.
    stack: list[tuple[int, list[int]]] = [(0, cands)]
    while stack:
        closure_mask, allowed = stack.pop()
        for i, c in enumerate(allowed):
            new_mask = closure_mask | (1 << c) | des[c]
            results.append(closure_nodes(new_mask))
            if len(results) >= max_enum:
                truncated = True
                stack.clear()
                break
            nxt = [
                d
                for d in allowed[i + 1 :]
                if not (des[c] >> d) & 1 and not (anc[c] >> d) & 1
            ]
            if nxt:
                stack.append((new_mask, nxt))
        if truncated:
            break
    return results, union_nodes, truncated


def notion_instances(edges: np.ndarray, n: int, notion: str) -> np.ndarray:
    """The instances of ``notion`` in a compact graph, as an ``(m, r)``
    int64 array: the edges themselves for 'edge' (r = 2), the h-cliques
    for 'clique:h' (r = h), the ψ-instances for a pattern name in
    ``PATTERNS`` (r = |V_ψ|). The only parser of notion strings."""
    if notion == "edge":
        return np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if notion.startswith("clique:"):
        r = int(notion.split(":")[1])
        found = list_cliques(edges, n, r)
    else:
        found = enumerate_instances(edges, n, notion)
        r = PATTERNS[notion].n_nodes
    return np.array(found, dtype=np.int64).reshape(-1, r)


def _network_builder(notion: str, inst: np.ndarray, n: int):
    """α ↦ the flow network of ``notion`` over the core's instances:
    Goldberg's for edges, Algorithm 7's for patterns, Algorithm 6's for
    h-cliques."""
    if notion == "edge":
        return lambda alpha: build_edge_network(inst, n, alpha)
    if notion in PATTERNS:
        groups = group_instances(inst.tolist())
        return lambda alpha: build_pattern_network(n, groups, inst.shape[1], alpha)
    cliques = [tuple(c) for c in inst.tolist()]
    lambdas = sub_cliques(cliques)
    return lambda alpha: build_clique_network(n, cliques, lambdas, alpha)


def all_densest(
    edges: np.ndarray, notion: str, max_enum: int = 100_000
) -> DensestResult:
    """All densest subgraphs for 'edge', 'clique:h' or a pattern name.

    One pipeline for every notion: list the instances, prune to the
    ⌈ρ̃⌉-core of the batch peel's ρ̃ (every densest set lies inside it:
    each of its nodes has instance degree ≥ ρ* ≥ ρ̃), search ρ* between
    the sequential peel's achieved density on the core and the core's
    largest instance degree over r (ρ(S) is the mean degree in S over
    r), then enumerate from the residual graph of the flow at ρ*.
    """
    empty = DensestResult(Fraction(0), [], frozenset(), 0)
    e = canonical_edges(edges)
    if len(e) == 0:
        return empty
    ce, ids = relabel(e)
    n = len(ids)
    inst = notion_instances(ce, n, notion)
    if len(inst) == 0:
        return empty
    rho_tilde, _ = charikar_peel(inst, n)
    in_core = np.zeros(n, dtype=bool)
    in_core[k_core_nodes(inst, n, int(np.ceil(rho_tilde)))] = True
    inst, core_ids = relabel(inst[edge_mask(inst, in_core)])
    n2 = len(core_ids)
    r = inst.shape[1]

    def density_of(S: set[int]) -> Fraction:
        mask = np.zeros(n2, dtype=bool)
        mask[list(S)] = True
        return Fraction(int(np.count_nonzero(edge_mask(inst, mask))), len(S))

    lo, witness, _, _, _ = instance_peel(inst, n2)
    hi = Fraction(int(degrees(inst, n2).max()), r)
    builder = _network_builder(notion, inst, n2)
    rho, _ = goldberg_search(builder, n2, lo, witness, hi, density_of)
    net, s, t, vid, _total = builder(rho)
    net.max_flow(s, t)
    vid_of = {vid[i]: int(ids[core_ids[i]]) for i in range(n2)}
    subs, union_nodes, truncated = _enumerate_from_residual(
        net, s, t, vid_of, max_enum
    )
    return DensestResult(rho, subs, union_nodes, len(subs), truncated, n2)
