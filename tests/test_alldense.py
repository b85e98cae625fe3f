"""Exact all-densest-subgraph enumeration vs brute force (the core oracle).

These validate the paper's Algorithms 2/3/4 and the Chang&Qiao edge
pipeline end-to-end: exact ρ*, the complete list of densest subgraphs
(each exactly once), and the maximum-sized densest subgraph (= union).
"""
from fractions import Fraction

import numpy as np
import pytest

from repro.graphs.alldense import all_densest
from repro.graphs.bruteforce import brute_all_densest
from repro.graphs.graph import canonical_edges

NOTIONS = ["edge", "clique:3", "clique:4", "2-star", "3-star", "c3-star", "diamond"]


def random_graph(seed, n_max=9):
    g = np.random.default_rng(seed)
    n = int(g.integers(3, n_max + 1))
    p = g.uniform(0.25, 0.85)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if g.random() < p
    ]
    return canonical_edges(np.array(edges, dtype=np.int64).reshape(-1, 2))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("notion", NOTIONS)
def test_enumeration_matches_brute(seed, notion):
    e = random_graph(seed)
    rho, exp_sets = brute_all_densest(e, notion)
    res = all_densest(e, notion)
    got = sorted(res.subgraphs, key=lambda s: (len(s), sorted(s)))
    assert res.rho == rho
    assert got == exp_sets
    assert not res.truncated
    union = frozenset().union(*exp_sets) if exp_sets else frozenset()
    assert res.max_sized == union


def block_and_tail(seed):
    """A near-K6 block on nodes 0..5 with a sparse 6-node tail hung off it,
    so the ⌈ρ̃⌉-core is smaller than the graph for every notion."""
    g = np.random.default_rng(seed)
    block = [(u, v) for u in range(6) for v in range(u + 1, 6) if g.random() < 0.85]
    tail = [(v, v + 1) for v in range(6, 11)] + [(int(g.integers(0, 6)), 6)]
    tail += [tuple(g.integers(6, 12, size=2).tolist()) for _ in range(2)]
    return canonical_edges(np.array(block + tail))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("notion", NOTIONS)
def test_pruned_pipeline_matches_brute(seed, notion):
    e = block_and_tail(seed)
    rho, exp_sets = brute_all_densest(e, notion)
    res = all_densest(e, notion)
    assert res.core_nodes < len(np.unique(e))  # the core step pruned
    assert res.rho == rho
    assert sorted(res.subgraphs, key=lambda s: (len(s), sorted(s))) == exp_sets


@pytest.mark.parametrize("seed", range(6))
def test_each_subgraph_enumerated_once(seed):
    e = random_graph(seed + 100)
    res = all_densest(e, "edge")
    assert len(set(res.subgraphs)) == len(res.subgraphs)


def test_empty_graph():
    for notion in NOTIONS:
        res = all_densest(np.empty((0, 2), dtype=np.int64), notion)
        assert res.rho == 0 and res.subgraphs == [] and res.max_sized == frozenset()


def test_single_edge():
    res = all_densest(np.array([[4, 7]]), "edge")
    assert res.rho == Fraction(1, 2)
    assert res.subgraphs == [frozenset({4, 7})]


def test_disconnected_ties_union():
    # two disjoint single edges tie at 1/2; union also ties
    res = all_densest(np.array([[0, 1], [5, 6]]), "edge")
    sets = {frozenset(s) for s in res.subgraphs}
    assert sets == {
        frozenset({0, 1}), frozenset({5, 6}), frozenset({0, 1, 5, 6})
    }
    assert res.max_sized == frozenset({0, 1, 5, 6})


def test_disjoint_triangles_combinatorics():
    # k disjoint triangles at rho = 1: 2^k - 1 densest subgraphs
    tris = []
    for k in range(3):
        b = 3 * k
        tris += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    res = all_densest(np.array(tris), "edge")
    assert res.rho == Fraction(1)
    assert res.n_densest == 2**3 - 1


def test_triangle_with_pendant():
    # triangle (3/3) ties the whole graph (4/4) at density 1
    res = all_densest(np.array([[0, 1], [1, 2], [0, 2], [2, 3]]), "edge")
    assert res.rho == Fraction(1)
    assert {frozenset(s) for s in res.subgraphs} == {
        frozenset({0, 1, 2}), frozenset({0, 1, 2, 3})
    }
    assert res.max_sized == frozenset({0, 1, 2, 3})


def test_clique_densest_k4_plus_pendant():
    e = canonical_edges(
        np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4]])
    )
    res = all_densest(e, "clique:3")
    assert res.rho == Fraction(4, 4)
    assert res.subgraphs == [frozenset({0, 1, 2, 3})]


def test_clique_no_instances():
    # a path has no triangle: clique:3 has no densest subgraph
    res = all_densest(np.array([[0, 1], [1, 2]]), "clique:3")
    assert res.rho == 0 and res.subgraphs == []


def test_pattern_no_instances():
    # single edge has no 2-star
    res = all_densest(np.array([[0, 1]]), "2-star")
    assert res.rho == 0 and res.subgraphs == []


def test_max_enum_truncation_flag():
    tris = []
    for k in range(6):  # 63 densest subgraphs
        b = 3 * k
        tris += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    res = all_densest(np.array(tris), "edge", max_enum=5)
    assert res.truncated and res.n_densest == 5
    # union must still be complete despite truncation
    assert len(res.max_sized) == 18


def test_original_labels_preserved():
    e = np.array([[100, 200], [200, 300], [100, 300]])
    res = all_densest(e, "edge")
    assert res.subgraphs == [frozenset({100, 200, 300})]


@pytest.mark.parametrize("seed", range(4))
def test_clique5_on_denser_graphs(seed):
    g = np.random.default_rng(seed)
    n = 8
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if g.random() < 0.75
    ]
    e = canonical_edges(np.array(edges).reshape(-1, 2))
    rho, exp_sets = brute_all_densest(e, "clique:5")
    res = all_densest(e, "clique:5")
    assert res.rho == rho
    assert sorted(res.subgraphs, key=lambda s: (len(s), sorted(s))) == exp_sets


def test_paper_example4_shape():
    """Figure 3's possible world: densest subgraphs {A,B,C,D} and {B,C,D}.

    Reconstruction of the world in Fig. 3(b): A-B, B-C, B-D, C-D with
    ρ* = 1; enumeration finds both the 4-cycle-with-chord structure and
    the inner triangle.
    """
    A, B, C, D = 0, 1, 2, 3
    e = canonical_edges(np.array([[A, B], [B, C], [B, D], [C, D]]))
    res = all_densest(e, "edge")
    assert res.rho == Fraction(1)
    assert {frozenset(s) for s in res.subgraphs} == {
        frozenset({A, B, C, D}), frozenset({B, C, D})
    }


def _planted(seed, n, blocks):
    """Sparse random background on n nodes (about n edges) with dense
    blocks planted on disjoint node ranges, each tied to the background
    by one bridge edge per block node."""
    g = np.random.default_rng(seed)
    edges = [tuple(x) for x in g.integers(0, n, size=(n, 2)).tolist()]
    start = 0
    for size, missing in blocks:
        nodes = list(range(start, start + size))
        block = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        edges += block[missing:]
        edges += [(u, int(g.integers(start + size, n))) for u in nodes]
        start += size
    return canonical_edges(np.array(edges, dtype=np.int64))


def _unpruned_oracle(e):
    """Goldberg search and enumeration on the whole graph, no pruning."""
    from repro.graphs.alldense import _enumerate_from_residual
    from repro.graphs.goldberg import build_edge_network, goldberg_search
    from repro.graphs.graph import induced_edge_count, relabel

    ce, ids = relabel(e)
    n = len(ids)

    def builder(alpha):
        return build_edge_network(ce, n, alpha)

    rho, _ = goldberg_search(
        builder, n, Fraction(len(ce), n), set(range(n)),
        Fraction(n - 1, 2) + 1,
        lambda S: Fraction(induced_edge_count(ce, S), len(S)),
    )
    net, s, t, vid, _ = builder(rho)
    net.max_flow(s, t)
    vid_of = {vid[i]: int(ids[i]) for i in range(n)}
    subs, union, _ = _enumerate_from_residual(net, s, t, vid_of, 10_000)
    return rho, subs, union, n


@pytest.mark.parametrize(
    "seed,n,blocks,n_densest",
    [
        (0, 300, [(7, 0)], 1),
        (1, 800, [(6, 0), (6, 0)], 3),  # two tied K6 blocks
        (2, 2000, [(8, 0), (7, 1), (6, 0)], 1),
    ],
)
def test_pruned_kernel_matches_unpruned_oracle(seed, n, blocks, n_densest):
    e = _planted(seed, n, blocks)
    rho, subs, union, n_nodes = _unpruned_oracle(e)
    res = all_densest(e, "edge")
    assert res.core_nodes < n_nodes  # pruning removed nodes
    assert res.rho == rho
    assert sorted(map(sorted, res.subgraphs)) == sorted(map(sorted, subs))
    assert res.max_sized == union
    assert res.n_densest == n_densest
