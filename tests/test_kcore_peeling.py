"""k-core / peeling kernels vs brute-force references."""
from fractions import Fraction

import numpy as np
import pytest

from repro.graphs.graph import canonical_edges, degrees
from repro.graphs.kcore import core_numbers, k_core_nodes
from repro.graphs.peeling import charikar_peel, instance_core, instance_peel


def brute_k_core(edges, n, k):
    alive = set(range(n))
    while True:
        deg = {v: 0 for v in alive}
        for u, v in edges:
            if u in alive and v in alive:
                deg[u] += 1
                deg[v] += 1
        drop = {v for v in alive if deg[v] < k}
        if not drop:
            return alive
        alive -= drop


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_core_matches_brute(seed, k):
    g = np.random.default_rng(seed)
    n = 12
    e = canonical_edges(g.integers(0, n, size=(30, 2)))
    got = set(k_core_nodes(e, n, k).tolist())
    exp = brute_k_core([tuple(x) for x in e.tolist()], n, k)
    # brute force keeps isolated nodes when k == 0 only; for k >= 1 match
    assert got == {v for v in exp}


def test_k_core_zero_returns_all():
    e = np.array([[0, 1]])
    assert set(k_core_nodes(e, 3, 0).tolist()) == {0, 1, 2}


def test_core_numbers_clique_plus_tail():
    # K4 (core 3) with a path tail (core 1)
    e = canonical_edges(
        np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4], [4, 5]])
    )
    cn = core_numbers(e, 6)
    assert cn[:4].tolist() == [3, 3, 3, 3]
    assert cn[4] == 1 and cn[5] == 1


@pytest.mark.parametrize("seed", range(6))
def test_charikar_peel_is_half_approx_and_achieved(seed):
    g = np.random.default_rng(seed)
    n = 10
    e = canonical_edges(g.integers(0, n, size=(25, 2)))
    if len(e) == 0:
        pytest.skip("empty draw")
    best, best_set = charikar_peel(e, n)
    # achieved: density of the returned set equals `best`
    cnt = sum(1 for u, v in e if u in best_set and v in best_set)
    assert Fraction(cnt, len(best_set)) == best
    # brute optimum within factor 2
    from repro.graphs.bruteforce import brute_all_densest

    rho, _ = brute_all_densest(e, "edge")
    assert best <= rho <= 2 * best


def test_charikar_peel_empty():
    best, s = charikar_peel(np.empty((0, 2), dtype=np.int64), 5)
    assert best == 0 and s == set()


def test_instance_peel_matches_edge_peel_on_edges():
    # triangle + pendant: whole graph (4/4) ties the triangle (3/3)
    e = canonical_edges(np.array([[0, 1], [1, 2], [0, 2], [2, 3]]))
    inst = [tuple(x) for x in e.tolist()]
    best_i, set_i, order, dens, degs = instance_peel(inst, 4)
    best_e, set_e = charikar_peel(e, 4)
    assert best_i == best_e == Fraction(1)
    assert set_i in ({0, 1, 2}, {0, 1, 2, 3})
    assert set_e in ({0, 1, 2}, {0, 1, 2, 3})
    assert len(order) == len(dens) == 4


def test_instance_core_triangle_instances():
    # two triangles sharing node 2; instance = triangle
    tris = [(0, 1, 2), (2, 3, 4)]
    assert instance_core(tris, 5, 1) == {0, 1, 2, 3, 4}
    assert instance_core(tris, 5, 2) == set()


def test_instance_core_removal_cascade():
    # instance degree of 2 is 2; removing others kills all instances
    tris = [(0, 1, 2), (0, 1, 3)]
    core = instance_core(tris, 4, 2)
    assert core == set()  # nodes 2,3 have degree 1 -> cascade kills all


def test_instance_peel_empty():
    best, s, order, dens, degs = instance_peel([], 4)
    assert best == 0 and s == set() and order == [] and dens == []


def _clique(nodes):
    return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]


def _path(nodes):
    return list(zip(nodes[:-1], nodes[1:]))


# Shapes whose batch peel needs many passes, with their exact ρ*.
PEEL_SHAPES = {
    "path_2000": (_path(list(range(2000))), 2000, Fraction(1999, 2000)),
    "star_500": ([(0, v) for v in range(1, 501)], 501, Fraction(500, 501)),
    "k5_tail_500": (_clique(list(range(5))) + _path(list(range(4, 505))), 505, Fraction(2)),
    "k5_and_k6": (_clique(list(range(5))) + _clique(list(range(5, 11))), 11, Fraction(5, 2)),
}


@pytest.mark.parametrize("shape", sorted(PEEL_SHAPES))
def test_batch_peel_many_passes_is_achieved_and_half_approx(shape):
    edge_list, n, rho = PEEL_SHAPES[shape]
    e = canonical_edges(np.array(edge_list, dtype=np.int64))
    best, best_set = charikar_peel(e, n)
    assert best_set
    cnt = sum(1 for u, v in e.tolist() if u in best_set and v in best_set)
    assert Fraction(cnt, len(best_set)) == best
    assert best <= rho <= 2 * best


def test_k_core_drops_long_tail():
    edge_list, n, _ = PEEL_SHAPES["k5_tail_500"]
    e = canonical_edges(np.array(edge_list, dtype=np.int64))
    assert k_core_nodes(e, n, 2).tolist() == [0, 1, 2, 3, 4]
    assert k_core_nodes(e, n, 1).tolist() == list(range(n))
    assert k_core_nodes(e, n, 5).size == 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_k_core_matches_brute_n300(seed, k):
    g = np.random.default_rng(100 + seed)
    n = 300
    e = canonical_edges(g.integers(0, n, size=(int(g.integers(300, 900)), 2)))
    got = set(k_core_nodes(e, n, k).tolist())
    assert got == brute_k_core([tuple(x) for x in e.tolist()], n, k)
