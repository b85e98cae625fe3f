"""k-core / peeling kernels vs brute-force and loop references."""
import heapq
from fractions import Fraction

import numpy as np
import pytest

from repro.graphs.graph import canonical_edges
from repro.graphs.kcore import k_core_nodes
from repro.graphs.peeling import charikar_peel, instance_peel


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
    # K4 (core 3) with a path tail (core 1); core number = running max of
    # the degrees the sequential peel pops
    e = canonical_edges(
        np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4], [4, 5]])
    )
    _, _, order, _, popped = instance_peel(e, 6)
    cn = np.zeros(6, dtype=np.int64)
    cn[order] = np.maximum.accumulate(popped)
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
    tris = np.array([(0, 1, 2), (2, 3, 4)])
    assert k_core_nodes(tris, 5, 1).tolist() == [0, 1, 2, 3, 4]
    assert k_core_nodes(tris, 5, 2).size == 0


def test_instance_core_removal_cascade():
    # instance degree of 2 is 2; removing others kills all instances
    tris = np.array([(0, 1, 2), (0, 1, 3)])
    core = k_core_nodes(tris, 4, 2)
    assert core.size == 0  # nodes 2,3 have degree 1 -> cascade kills all


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


# ---- loop references for the numpy / weighted primitives -------------------

def reference_core(instances, n, k, weights=None):
    """Queue-based (k, ·)-core: drop a node once its surviving instances
    weigh < k, and kill its instances (the pre-numpy instance core)."""
    w = [1] * len(instances) if weights is None else list(weights)
    inst_of = [[] for _ in range(n)]
    deg = [0] * n
    for i, inst in enumerate(instances):
        for v in inst:
            inst_of[v].append(i)
            deg[v] += w[i]
    alive = [d > 0 for d in deg]
    inst_alive = [True] * len(instances)
    queue = [v for v in range(n) if alive[v] and deg[v] < k]
    for v in queue:
        alive[v] = False
    while queue:
        v = queue.pop()
        for i in inst_of[v]:
            if inst_alive[i]:
                inst_alive[i] = False
                for u in instances[i]:
                    if u != v and alive[u]:
                        deg[u] -= w[i]
                        if deg[u] < k:
                            alive[u] = False
                            queue.append(u)
    return {v for v in range(n) if alive[v]}


def reference_weighted_peel(instances, n, weights):
    """Heap min-weighted-degree peel (the former EDS peel): best suffix
    density and the node set achieving it."""
    inst_of = [[] for _ in range(n)]
    wdeg = [0] * n
    for i, (nodes, w) in enumerate(zip(instances, weights)):
        for v in nodes:
            inst_of[v].append(i)
            wdeg[v] += w
    cur = {v for v in range(n) if inst_of[v]}
    total = sum(weights)
    best, best_set = Fraction(total, len(cur)), set(cur)
    heap = [(wdeg[v], v) for v in cur]
    heapq.heapify(heap)
    item_alive = [True] * len(instances)
    removed = [False] * n
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != wdeg[v]:
            continue
        removed[v] = True
        cur.discard(v)
        for i in inst_of[v]:
            if item_alive[i]:
                item_alive[i] = False
                total -= weights[i]
                for u in instances[i]:
                    if u != v and not removed[u]:
                        wdeg[u] -= weights[i]
                        heapq.heappush(heap, (wdeg[u], u))
        if cur and Fraction(total, len(cur)) > best:
            best, best_set = Fraction(total, len(cur)), set(cur)
    return best, best_set


def random_instances(seed, r, n=14):
    """Random distinct r-node instances (rows of distinct nodes) and
    integer weights spanning 1 to 10**6, like scaled probabilities."""
    g = np.random.default_rng(seed)
    m = int(g.integers(5, 40))
    rows = {tuple(sorted(g.choice(n, size=r, replace=False).tolist())) for _ in range(m)}
    inst = np.array(sorted(rows), dtype=np.int64)
    weights = g.integers(1, 10**6, size=len(inst))
    return inst, weights, n


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("weighted", [False, True])
def test_k_core_matches_reference_core(seed, r, weighted):
    inst, weights, n = random_instances(seed, r)
    w = weights if weighted else None
    rows = inst.tolist()
    total = int(weights.sum()) if weighted else len(rows)
    for k in (1, 2, 3, total // n, total // 3):
        got = set(k_core_nodes(inst, n, k, w).tolist())
        assert got == reference_core(rows, n, k, None if w is None else w.tolist())


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("r", [2, 3, 4])
def test_weighted_instance_peel_matches_reference(seed, r):
    inst, weights, n = random_instances(seed, r)
    best, best_set, _, _, _ = instance_peel(inst, n, weights)
    ref_best, ref_set = reference_weighted_peel(inst.tolist(), n, weights.tolist())
    assert (best, best_set) == (ref_best, ref_set)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("r", [3, 4])
def test_batch_peel_on_instances_is_achieved_and_within_r(seed, r):
    inst, _, n = random_instances(seed, r)
    best, best_set = charikar_peel(inst, n)
    mask = np.zeros(n, dtype=bool)
    mask[list(best_set)] = True
    assert Fraction(int(mask[inst].all(axis=1).sum()), len(best_set)) == best
    # brute-force ρ* over all 2^n node subsets
    subsets = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1 == 1
    inside = subsets[:, inst].all(axis=2).sum(axis=1)
    rho = max(Fraction(int(c), int(k)) for c, k in zip(inside, subsets.sum(axis=1)))
    assert best <= rho <= r * best
