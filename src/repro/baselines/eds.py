"""Expected densest subgraph (EDS) — Zou 2013, extended per Appendix C.

Edge density: the expected density of U is Σ_{e ⊆ U} p(e) / |U|
(linearity), i.e. the weighted densest subgraph of the deterministic
graph with weights p(e). We scale probabilities to integers (×10⁶) and
run the exact weighted Goldberg search, so the result is the true
integer-weighted optimum.

Clique/pattern density (Theorem 7): the expected density is the
weighted instance density with instance weight Π edge probs. The
weighted flow network generalizes the pattern network of Algorithm 7
with per-group weights; we reuse the grouped builder with integer
weights (the group "count" becomes the scaled weight sum).

The instances come from ``alldense.notion_instances``, the achieved
lower bound and witness from the integer-weighted ``instance_peel``, and
the pruning from the weighted ``k_core_nodes`` — the primitives of the
per-world kernel, given instance weights as data.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..core.uncertain import UncertainGraph
from ..graphs.alldense import notion_instances
from ..graphs.goldberg import (
    build_edge_network,
    build_pattern_network,
    goldberg_search,
)
from ..graphs.graph import edge_mask, relabel
from ..graphs.kcore import k_core_nodes
from ..graphs.patterns import instance_pattern_edges
from ..graphs.peeling import instance_peel

SCALE = 1_000_000


def expected_densest(
    ug: UncertainGraph, notion: str = "edge"
) -> tuple[frozenset[int], float]:
    """(EDS node set, its expected density). Exact up to prob scaling."""
    ce, ids = relabel(ug.edges)
    n = len(ids)
    if n == 0:
        return frozenset(), 0.0
    w_int = np.maximum(1, np.round(ug.probs * SCALE).astype(np.int64))
    inst = notion_instances(ce, n, notion)
    if len(inst) == 0:
        return frozenset(), 0.0
    if notion == "edge":
        weights = w_int
    else:
        prob_of = {
            (int(u), int(v)): int(w) for (u, v), w in zip(ce, w_int)
        }
        weights = []
        for nodes in inst.tolist():
            w = 1.0
            for a, b in instance_pattern_edges(nodes, notion):
                w *= prob_of[(min(a, b), max(a, b))] / SCALE
            weights.append(max(1, int(round(w * SCALE))))
        weights = np.array(weights, dtype=np.int64)
    lo, _, _, _, _ = instance_peel(inst, n, weights)
    # Prune to the weighted core: any node of the weighted densest
    # subgraph has weighted instance degree ≥ ρ* ≥ ρ̃ (same exchange
    # argument as the unweighted case), and degrees are integers, so
    # the ⌈ρ̃⌉-core keeps the optimum intact.
    in_core = np.zeros(n, dtype=bool)
    in_core[k_core_nodes(inst, n, int(np.ceil(lo)), weights)] = True
    keep = edge_mask(inst, in_core)
    inst, core_ids = relabel(inst[keep])
    weights = weights[keep]
    ids = ids[core_ids]
    n = len(core_ids)
    lo, witness, _, _, _ = instance_peel(inst, n, weights)

    def density_of(S: set[int]) -> Fraction:
        mask = np.zeros(n, dtype=bool)
        mask[list(S)] = True
        return Fraction(int(weights[edge_mask(inst, mask)].sum()), len(S))

    hi = Fraction(int(weights.sum()), 1)
    if notion == "edge":

        def builder(alpha: Fraction):
            return build_edge_network(inst, n, alpha, weights)

    else:
        # grouped weighted-instance network: group weight = Σ instance
        # weights sharing a node set (generalizes Algorithm 7's |g|).
        groups: dict[frozenset[int], int] = {}
        for nodes, w in zip(inst.tolist(), weights.tolist()):
            key = frozenset(nodes)
            groups[key] = groups.get(key, 0) + w

        def builder(alpha: Fraction):
            return build_pattern_network(n, groups, inst.shape[1], alpha)

    # Densities are (Σ int weights)/|S|: gap ≥ 1/n² in weight units —
    # goldberg_search's termination rule applies unchanged.
    rho, witness = goldberg_search(builder, n, lo, witness, hi, density_of)
    nodes = frozenset(int(ids[v]) for v in witness)
    return nodes, float(rho) / SCALE
