"""Goldberg binary search + flow-network builders: exact ρ* and witnesses."""
from fractions import Fraction

import numpy as np
import pytest

from repro.graphs.bruteforce import brute_all_densest
from repro.graphs.cliques import list_cliques, sub_cliques
from repro.graphs.goldberg import (
    build_clique_network,
    build_edge_network,
    build_pattern_network,
    goldberg_search,
)
from repro.graphs.graph import canonical_edges, induced_edge_count
from repro.graphs.patterns import enumerate_instances, group_instances
from repro.graphs.peeling import charikar_peel, instance_peel


def random_graph(seed, n=8, p=0.5):
    g = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.random() < p]
    if not edges:
        edges = [(0, 1)]
    return canonical_edges(np.array(edges).reshape(-1, 2)), n


@pytest.mark.parametrize("seed", range(10))
def test_edge_density_search_matches_brute(seed):
    e, n = random_graph(seed)
    rho_b, _ = brute_all_densest(e, "edge")
    lo, witness = charikar_peel(e, n)

    def density_of(S):
        return Fraction(induced_edge_count(e, S), len(S))

    rho, w = goldberg_search(
        lambda a: build_edge_network(e, n, a), n, lo, witness,
        Fraction(n - 1, 2) + 1, density_of,
    )
    assert rho == rho_b
    assert density_of(w) == rho_b  # witness is itself densest


@pytest.mark.parametrize("seed", range(6))
def test_clique_density_search_matches_brute(seed):
    e, n = random_graph(seed, p=0.7)
    cl = list_cliques(e, n, 3)
    if not cl:
        pytest.skip("no triangle")
    rho_b, _ = brute_all_densest(e, "clique:3")
    lams = sub_cliques(cl)
    lo, witness, _, _, _ = instance_peel(cl, n)

    def density_of(S):
        return Fraction(sum(1 for c in cl if all(v in S for v in c)), len(S))

    rho, w = goldberg_search(
        lambda a: build_clique_network(n, cl, lams, a), n, lo, witness,
        Fraction(len(cl), 1), density_of,
    )
    assert rho == rho_b and density_of(w) == rho_b


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["2-star", "diamond"])
def test_pattern_density_search_matches_brute(seed, name):
    e, n = random_graph(seed, p=0.65)
    insts = enumerate_instances(e, n, name)
    if not insts:
        pytest.skip("no instance")
    rho_b, _ = brute_all_densest(e, name)
    groups = group_instances(insts)
    lo, witness, _, _, _ = instance_peel(insts, n)
    psz = 3 if name == "2-star" else 4

    def density_of(S):
        return Fraction(
            sum(1 for c in insts if all(v in S for v in c)), len(S)
        )

    rho, w = goldberg_search(
        lambda a: build_pattern_network(n, groups, psz, a), n, lo, witness,
        Fraction(len(insts), 1), density_of,
    )
    assert rho == rho_b and density_of(w) == rho_b


def test_edge_network_total_capacity_scaled():
    e = canonical_edges(np.array([[0, 1], [1, 2]]))
    alpha = Fraction(1, 3)
    net, s, t, vid, total = build_edge_network(e, 3, alpha)
    assert total == 2 * 2 * 3  # 2m * denominator


def test_weighted_edge_network():
    e = canonical_edges(np.array([[0, 1]]))
    w = np.array([5], dtype=np.int64)
    net, s, t, vid, total = build_edge_network(e, 2, Fraction(1, 2), w)
    assert total == 2 * 5 * 2


def test_search_trivial_graph():
    e = canonical_edges(np.array([[0, 1]]))

    def density_of(S):
        return Fraction(induced_edge_count(e, S), len(S))

    lo, witness = charikar_peel(e, 2)
    rho, w = goldberg_search(
        lambda a: build_edge_network(e, 2, a), 2, lo, witness,
        Fraction(2), density_of,
    )
    assert rho == Fraction(1, 2) and w == {0, 1}


def test_search_on_known_k5():
    e = canonical_edges(
        np.array([(u, v) for u in range(5) for v in range(u + 1, 5)])
    )
    lo, witness = charikar_peel(e, 5)

    def density_of(S):
        return Fraction(induced_edge_count(e, S), len(S))

    rho, w = goldberg_search(
        lambda a: build_edge_network(e, 5, a), 5, lo, witness,
        Fraction(3), density_of,
    )
    assert rho == Fraction(2) and w == set(range(5))


def test_search_raises_when_density_does_not_improve():
    # K4 has a cut below total capacity at every α < 3/2; a density_of
    # that never rises above the guess breaks the search invariant.
    e = canonical_edges(np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]))
    with pytest.raises(RuntimeError, match="not above alpha"):
        goldberg_search(
            lambda a: build_edge_network(e, 4, a), 4, Fraction(0), set(),
            Fraction(2), lambda S: Fraction(0),
        )


def test_search_raises_on_empty_source_side():
    # A network whose only unsaturated source arc leads to a non-graph
    # node: the cut is below total capacity but holds no graph node.
    from repro.graphs.maxflow import FlowNetwork

    def builder(alpha):
        net = FlowNetwork(5)  # s=0, t=1, graph nodes 2 and 3, extra node 4
        net.add_edge(0, 4, 1)  # node 4 reaches nothing, so no flow
        return net, 0, 1, [2, 3], 1

    with pytest.raises(RuntimeError, match="no graph node"):
        goldberg_search(builder, 2, Fraction(0), set(), Fraction(1),
                        lambda S: Fraction(1))
