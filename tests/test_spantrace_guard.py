"""The traced replay (``perfbench/run.py --trace 1``) still reaches every
kernel stage: each name it patches resolves, and a traced ``all_densest``
records a span for each stage the notion runs."""
import numpy as np
import pytest

from perfbench.spantrace import PATCHES, Tracer, instrumented
from repro.graphs.alldense import all_densest
from repro.graphs.graph import canonical_edges

# notion → the lister and network-builder spans its pipeline must record
STAGES = {
    "edge": {"graphs.goldberg.build_edge_network"},
    "clique:3": {"graphs.cliques.list_cliques", "graphs.cliques.sub_cliques",
                 "graphs.goldberg.build_clique_network"},
    "clique:4": {"graphs.cliques.list_cliques", "graphs.cliques.sub_cliques",
                 "graphs.goldberg.build_clique_network"},
}
for _name in ("2-star", "3-star", "c3-star", "diamond"):
    STAGES[_name] = {"graphs.patterns.enumerate_instances",
                     "graphs.patterns.group_instances",
                     "graphs.goldberg.build_pattern_network"}

SHARED = {
    "graphs.peeling.charikar_peel",
    "graphs.peeling.instance_peel",
    "graphs.kcore.k_core_nodes",
    "graphs.goldberg.goldberg_search",
    "graphs.maxflow.max_flow",
    "graphs.alldense.enumerate",
    "graphs.scc.tarjan_scc",
}


def test_every_patched_name_resolves():
    for owner, attr, _ in PATCHES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("notion", sorted(STAGES))
def test_traced_all_densest_records_each_stage(notion):
    # K5 with a pendant path: every notion has instances and a core to prune
    e = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    e += [(4, 5), (5, 6), (6, 7)]
    edges = canonical_edges(np.array(e))
    plain = all_densest(edges, notion)
    with instrumented(Tracer()) as tracer:
        traced = all_densest(edges, notion)
    assert traced == plain
    missing = (SHARED | STAGES[notion]) - set(tracer.calls)
    assert not missing
