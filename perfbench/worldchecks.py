"""Output checks that any correct implementation passes, at any seed.

Two kinds:

* query checks look only at what the public API returned (well-formed
  top-k lists, estimated probabilities in [0, 1], the planted nucleus);
* world checks take one replayed possible world and the kernel's
  ``DensestResult`` for it and verify the answer from first principles:
  every reported set has density exactly ρ*, the maximum-sized set
  contains every reported set, no node set is denser than ρ* (an
  independent networkx min-cut), and, where the candidate region is
  small, the full list matches ``brute_all_densest``.

Every check returns a list of human-readable problems; empty means pass.
No check compares against a golden top-k, because which worlds are drawn
for a seed is allowed to change.
"""
from __future__ import annotations

from fractions import Fraction

import networkx as nx
import numpy as np

from repro.graphs.bruteforce import brute_all_densest
from repro.graphs.cliques import list_cliques
from repro.graphs.graph import canonical_edges, relabel
from repro.graphs.patterns import enumerate_instances

# brute_all_densest enumerates 2^n subsets; keep it to small regions.
BRUTE_MAX_NODES = 12
DENSITY_SAMPLE = 256


def check_topk(top, k: int, min_size: int = 1, label: str = "top") -> list[str]:
    """(set, probability) list: ≤ k entries, non-empty sets of size ≥
    ``min_size``, probabilities in [0, 1] and non-increasing."""
    probs = [p for _, p in top]
    problems = []
    if len(top) > k:
        problems.append(f"{label}: {len(top)} entries > k={k}")
    for s, p in top:
        if len(s) < max(1, min_size):
            problems.append(f"{label}: set of size {len(s)} < {max(1, min_size)}")
        if not 0.0 <= p <= 1.0:
            problems.append(f"{label}: probability {p} outside [0, 1]")
    if any(a < b for a, b in zip(probs, probs[1:])):
        problems.append(f"{label}: probabilities increase down the list {probs}")
    return problems


def check_estimates(probs_df, n_candidates: int) -> list[str]:
    """``estimate_set_probs`` output: one row per candidate, τ̂ and γ̂ in
    [0, 1], and τ̂ ≤ γ̂ (a densest set lies inside the max-sized one)."""
    problems = []
    if len(probs_df) != n_candidates:
        problems.append(f"estimate: {len(probs_df)} rows for {n_candidates} candidates")
    for ci, row in probs_df.iterrows():
        tau, gamma = float(row["tau_hat"]), float(row["gamma_hat"])
        if not (0.0 <= tau <= 1.0 and 0.0 <= gamma <= 1.0):
            problems.append(f"estimate[{ci}]: τ̂={tau} γ̂={gamma} outside [0, 1]")
        if tau > gamma + 1e-12:
            problems.append(f"estimate[{ci}]: τ̂={tau} > γ̂={gamma}")
    return problems


def world_instances(edges: np.ndarray, notion: str) -> list[tuple[int, ...]]:
    """Density instances of a world in original node labels: edges,
    h-cliques or pattern embeddings (with multiplicity)."""
    e = canonical_edges(edges)
    if notion == "edge":
        return [(int(u), int(v)) for u, v in e]
    ce, ids = relabel(e)
    if notion.startswith("clique:"):
        compact = list_cliques(ce, len(ids), int(notion.split(":")[1]))
    else:
        compact = enumerate_instances(ce, len(ids), notion)
    return [tuple(int(ids[v]) for v in inst) for inst in compact]


def _density(instances, nodes) -> Fraction:
    return Fraction(sum(1 for inst in instances if nodes.issuperset(inst)), len(nodes))


def _threshold_core(instances, keep_if) -> tuple[set[int], list]:
    """Repeatedly drop nodes whose instance degree fails ``keep_if``;
    returns the surviving nodes and the instances inside them."""
    alive = list(instances)
    while True:
        deg: dict[int, int] = {}
        for inst in alive:
            for v in set(inst):
                deg[v] = deg.get(v, 0) + 1
        nodes = {v for v, d in deg.items() if keep_if(d)}
        kept = [inst for inst in alive if nodes.issuperset(inst)]
        if len(kept) == len(alive):
            return nodes, kept
        alive = kept


def nothing_denser(instances, rho: Fraction) -> bool:
    """True iff no node set has density > ρ.

    Any set denser than ρ contains one whose nodes all have instance
    degree > ρ inside it, so only the (> ρ)-core needs the cut. On it, a
    selection network (s → instance: b, instance → member: ∞, node → t:
    a, for ρ = a/b) has max flow b·|I| − max_S (b·I(S) − a·|S|); the flow
    saturates every source arc iff no S has I(S)/|S| > ρ.
    """
    nodes, inst = _threshold_core(instances, lambda d: d > rho)
    if not inst:
        return True
    a, b = rho.numerator, rho.denominator
    g = nx.DiGraph()
    for i, members in enumerate(inst):
        g.add_edge("s", ("i", i), capacity=b)
        for v in set(members):
            g.add_edge(("i", i), ("v", v))  # no capacity attribute: infinite
    for v in nodes:
        g.add_edge(("v", v), "t", capacity=a)
    return nx.maximum_flow_value(g, "s", "t") == b * len(inst)


def check_world(edges: np.ndarray, notion: str, res) -> list[str]:
    """Verify one world's ``DensestResult`` from first principles."""
    instances = world_instances(edges, notion)
    rho = Fraction(res.rho)
    subs = [frozenset(int(v) for v in s) for s in res.subgraphs]
    max_sized = frozenset(int(v) for v in res.max_sized)
    problems = []
    if res.n_densest != len(subs):
        problems.append(f"n_densest={res.n_densest} but {len(subs)} sets")
    if len(set(subs)) != len(subs):
        problems.append("a densest set is reported twice")
    if not instances:
        if rho != 0 or subs or max_sized:
            problems.append(f"no instances but ρ*={rho}, {len(subs)} sets")
        return problems
    if rho <= 0 or not subs or not max_sized:
        return problems + [f"instances exist but ρ*={rho}, {len(subs)} sets"]
    outside = sum(1 for s in subs if not s <= max_sized)
    if outside:
        problems.append(f"{outside} densest sets not inside max_sized")
    # Only instances inside max_sized can lie inside a reported set; a
    # world can report thousands of tied sets, so density is checked on
    # an evenly spaced sample of at most DENSITY_SAMPLE of them.
    inner = [inst for inst in instances if max_sized.issuperset(inst)]
    step = max(1, len(subs) // DENSITY_SAMPLE)
    for s in subs[::step] + [max_sized]:
        d = _density(inner, s)
        if d != rho:
            problems.append(f"set of size {len(s)} has density {d} ≠ ρ*={rho}")
    if not nothing_denser(instances, rho):
        problems.append(f"a set denser than ρ*={rho} exists (min-cut certificate)")
    # Every densest set has all instance degrees ≥ ρ*, so all of them lie
    # in the (≥ ρ*)-core; enumerate it outright when it is small.
    region, _ = _threshold_core(instances, lambda d: d >= rho)
    if len(region) <= BRUTE_MAX_NODES:
        kept = np.array([e for e in canonical_edges(edges)
                         if int(e[0]) in region and int(e[1]) in region],
                        dtype=np.int64).reshape(-1, 2)
        b_rho, b_sets = brute_all_densest(kept, notion)
        if b_rho != rho:
            problems.append(f"brute force ρ*={b_rho} ≠ {rho}")
        elif res.truncated:
            if not set(subs) <= set(b_sets):
                problems.append("truncated list has sets brute force rejects")
        elif set(subs) != set(b_sets):
            problems.append(
                f"{len(subs)} sets reported, brute force finds {len(b_sets)}")
    return problems
