"""Clique listing and pattern instance enumeration vs itertools brute force."""
from itertools import combinations

import numpy as np
import pytest

from repro.graphs.cliques import list_cliques, sub_cliques
from repro.graphs.graph import adjacency_sets, canonical_edges, degrees
from repro.graphs.patterns import (
    PATTERNS,
    enumerate_instances,
    group_instances,
    instance_pattern_edges,
)
from repro.graphs.peeling import instance_peel


def brute_cliques(edges, n, h):
    adj = adjacency_sets(edges, n)
    out = []
    for combo in combinations(range(n), h):
        if all(b in adj[a] for a, b in combinations(combo, 2)):
            out.append(tuple(combo))
    return sorted(out)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_list_cliques_matches_brute(seed, h):
    g = np.random.default_rng(seed)
    n = 9
    e = canonical_edges(g.integers(0, n, size=(25, 2)))
    got = sorted(list_cliques(e, n, h))
    assert got == brute_cliques(e, n, h)


def test_list_cliques_k4():
    e = canonical_edges(
        np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    )
    assert list_cliques(e, 4, 4) == [(0, 1, 2, 3)]
    assert len(list_cliques(e, 4, 3)) == 4
    assert len(list_cliques(e, 4, 2)) == 6


def test_list_cliques_empty_graph():
    assert list_cliques(np.empty((0, 2), dtype=np.int64), 0, 3) == []


def test_clique_degrees():
    tris = np.array([(0, 1, 2), (0, 1, 3)])
    deg = degrees(tris, 4)
    assert deg.tolist() == [2, 2, 1, 1]


def test_sub_cliques_dedup():
    lams = sub_cliques([(0, 1, 2), (0, 1, 3)])
    assert lams == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]


def test_degeneracy_order_is_permutation():
    # kClist's degeneracy order is the sequential peel's removal order
    e = canonical_edges(np.array([[0, 1], [1, 2], [2, 3]]))
    order = instance_peel(e, 4)[2]
    assert sorted(order) == [0, 1, 2, 3]
    assert order == [0, 1, 2, 3]  # min degree first, ties by smaller id


# ---- pattern brute forces ---------------------------------------------------

def brute_pattern_count(edges, n, name):
    adj = adjacency_sets(edges, n)
    cnt = 0
    if name == "2-star":
        for c in range(n):
            d = len(adj[c])
            cnt += d * (d - 1) // 2
    elif name == "3-star":
        for c in range(n):
            d = len(adj[c])
            cnt += d * (d - 1) * (d - 2) // 6
    elif name == "c3-star":
        for tri in combinations(range(n), 3):
            a, b, c = tri
            if b in adj[a] and c in adj[a] and c in adj[b]:
                for x in tri:
                    cnt += len(adj[x] - set(tri))
    elif name == "diamond":
        for u, v in edges:
            cnt += len(adj[int(u)] & adj[int(v)]) * (len(adj[int(u)] & adj[int(v)]) - 1) // 2
    return cnt


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", list(PATTERNS))
def test_pattern_counts_match_brute(seed, name):
    g = np.random.default_rng(seed)
    n = 9
    e = canonical_edges(g.integers(0, n, size=(22, 2)))
    insts = enumerate_instances(e, n, name)
    assert len(insts) == brute_pattern_count(e, n, name)
    # no duplicate instances
    assert len(set(insts)) == len(insts)


def test_pattern_sizes():
    assert PATTERNS["2-star"].n_nodes == 3
    for name in ("3-star", "c3-star", "diamond"):
        assert PATTERNS[name].n_nodes == 4


def test_instances_on_k4():
    e = canonical_edges(
        np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    )
    assert len(enumerate_instances(e, 4, "2-star")) == 12  # 4 centers x C(3,2)
    assert len(enumerate_instances(e, 4, "3-star")) == 4
    assert len(enumerate_instances(e, 4, "diamond")) == 6  # per edge 1 pair
    # c3-star: 4 triangles x 3 centers x 1 external neighbor
    assert len(enumerate_instances(e, 4, "c3-star")) == 12


def test_group_instances():
    insts = [(0, 1, 2), (1, 0, 2), (0, 1, 3)]
    groups = group_instances(insts)
    assert groups[frozenset({0, 1, 2})] == 2
    assert groups[frozenset({0, 1, 3})] == 1


def test_instance_pattern_edges_within_instance():
    e = canonical_edges(np.array([[0, 1], [0, 2], [1, 2], [0, 3]]))
    for name in PATTERNS:
        for inst in enumerate_instances(e, 4, name):
            pe = instance_pattern_edges(inst, name)
            # every declared edge must be a real graph edge
            have = {(int(u), int(v)) for u, v in e}
            for a, b in pe:
                assert (min(a, b), max(a, b)) in have


def test_instance_pattern_edges_clique():
    assert sorted(instance_pattern_edges((1, 2, 3), "clique:3")) == [
        (1, 2), (1, 3), (2, 3)
    ]


def test_unknown_pattern_raises():
    with pytest.raises(ValueError):
        enumerate_instances(np.array([[0, 1]]), 2, "hexagon")
