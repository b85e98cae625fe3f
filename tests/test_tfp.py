"""Closed frequent itemset miner vs brute-force closure enumeration."""
from itertools import combinations

import numpy as np
import pytest

from repro.core.tfp import topk_closed_itemsets


def brute_closed(transactions):
    """All closed itemsets with supports: intersections of tx subsets."""
    txs = [t for t, _ in transactions]
    closed = {}
    for r in range(1, len(txs) + 1):
        for combo in combinations(range(len(txs)), r):
            inter = frozenset.intersection(*[txs[i] for i in combo])
            if inter:
                sup = sum(w for t, w in transactions if inter <= t)
                closed[inter] = sup
    return closed


@pytest.mark.parametrize("seed", range(8))
def test_matches_brute_closures(seed):
    g = np.random.default_rng(seed)
    txs = []
    for _ in range(8):
        size = int(g.integers(1, 5))
        txs.append((frozenset(int(x) for x in g.integers(0, 6, size)), 1.0))
    exp = brute_closed(txs)
    got = topk_closed_itemsets(txs, k=10**6, l_m=1)
    got_d = dict(got)
    assert set(got_d) == set(exp)
    for s, sup in exp.items():
        assert got_d[s] == pytest.approx(sup)


def test_weighted_supports():
    txs = [(frozenset({1, 2}), 2.5), (frozenset({1, 2, 3}), 1.0)]
    got = dict(topk_closed_itemsets(txs, 10, 1))
    assert got[frozenset({1, 2})] == pytest.approx(3.5)
    assert got[frozenset({1, 2, 3})] == pytest.approx(1.0)


def test_min_size_filter():
    txs = [(frozenset({1}), 5.0), (frozenset({1, 2, 3}), 1.0)]
    got = topk_closed_itemsets(txs, 10, l_m=2)
    assert all(len(s) >= 2 for s, _ in got)
    assert got[0][0] == frozenset({1, 2, 3})


def test_topk_order_and_limit():
    txs = (
        [(frozenset({1, 2}), 1.0)] * 5
        + [(frozenset({2, 3}), 1.0)] * 3
        + [(frozenset({3, 4}), 1.0)] * 1
    )
    got = topk_closed_itemsets(txs, k=2, l_m=2)
    assert [s for s, _ in got] == [frozenset({1, 2}), frozenset({2, 3})]


def test_closedness_no_superset_same_support():
    txs = [(frozenset({1, 2, 3}), 1.0)] * 4 + [(frozenset({1, 2}), 1.0)]
    got = dict(topk_closed_itemsets(txs, 100, 1))
    # {1,2} support 5, {1,2,3} support 4 — both closed; {1,3} not closed
    assert frozenset({1, 3}) not in got
    assert got[frozenset({1, 2})] == pytest.approx(5.0)


def test_empty_transactions():
    assert topk_closed_itemsets([], 5, 1) == []


def test_deterministic_tie_break():
    txs = [(frozenset({1, 2}), 1.0), (frozenset({3, 4}), 1.0)]
    a = topk_closed_itemsets(txs, 2, 1)
    b = topk_closed_itemsets(list(reversed(txs)), 2, 1)
    assert a == b
