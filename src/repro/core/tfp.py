"""Top-k closed frequent itemset mining (TFP-equivalent, exact).

Algorithm 5 reduces NDS to mining the top-k closed frequent node sets
from the bag of per-world maximum densest subgraphs. We implement the
classic closure-by-intersection incremental algorithm: the closed sets
of a transaction multiset are exactly the intersections of non-empty
transaction subsets, and supports can be maintained incrementally:

    on adding transaction (T, w):
        upd = {T: w}
        for each known closed C with support s:
            I = C ∩ T;  if I ≠ ∅: upd[I] = max(upd[I], s + w)
        merge upd into the closed-set table (overwrite supports)

Correctness of the ``max``: the old closure of I appears among the C
with C ∩ T = I and carries I's exact old support (supports of closed
supersets of I are ≤ it). This is exact — unlike TFP's pruning it keeps
all closed sets, which is affordable at our θ (≤ a few thousand,
transactions are maximum densest subgraphs, mostly recurring).
"""
from __future__ import annotations


def topk_closed_itemsets(
    transactions: list[tuple[frozenset[int], float]],
    k: int,
    l_m: int = 1,
    cap: int = 500_000,
) -> list[tuple[frozenset[int], float]]:
    """Top-k closed node sets of size ≥ l_m by (weighted) support.

    ``transactions`` are (node set, weight) pairs; support(X) = Σ weights
    of transactions containing X. Returns (set, support) sorted by
    support desc, then size desc, then lexicographic — deterministic.
    """
    # Merge duplicate transactions first (big win: max densest subgraphs
    # repeat across worlds).
    merged: dict[frozenset[int], float] = {}
    for t, w in transactions:
        if t:
            merged[t] = merged.get(t, 0.0) + w
    closures: dict[frozenset[int], float] = {}
    for t, w in merged.items():
        upd: dict[frozenset[int], float] = {t: w}
        for c, s in closures.items():
            i = c & t
            if i:
                cand = s + w
                if cand > upd.get(i, float("-inf")):
                    upd[i] = cand
        closures.update(upd)
        if len(closures) > cap:
            raise RuntimeError(
                f"closed-itemset table exceeded cap={cap}; raise cap or l_m"
            )
    out = [(s_set, sup) for s_set, sup in closures.items() if len(s_set) >= l_m]
    out.sort(key=lambda t: (-t[1], -len(t[0]), sorted(t[0])))
    return out[:k]
