"""Unit tests for repro.graphs.graph helpers."""
import numpy as np
import pytest

from repro.graphs.graph import (
    adjacency,
    adjacency_sets,
    canonical_edges,
    degrees,
    induced_edge_count,
    induced_subgraph,
    nodes_of,
    relabel,
)


def test_canonical_orders_and_dedups():
    e = np.array([[2, 1], [1, 2], [3, 3], [0, 5]])
    out = canonical_edges(e)
    assert out.tolist() == [[0, 5], [1, 2]]


def test_canonical_empty():
    assert canonical_edges(np.empty((0, 2))).shape == (0, 2)


def test_canonical_removes_self_loops():
    out = canonical_edges(np.array([[4, 4], [4, 5]]))
    assert out.tolist() == [[4, 5]]


@pytest.mark.parametrize("seed", range(5))
def test_canonical_idempotent(seed):
    g = np.random.default_rng(seed)
    e = g.integers(0, 10, size=(30, 2))
    once = canonical_edges(e)
    assert np.array_equal(once, canonical_edges(once))


def test_nodes_of():
    e = np.array([[5, 2], [2, 9]])
    assert nodes_of(e).tolist() == [2, 5, 9]


def test_relabel_roundtrip():
    e = canonical_edges(np.array([[10, 20], [20, 30]]))
    ce, ids = relabel(e)
    assert ids.tolist() == [10, 20, 30]
    back = ids[ce]
    assert np.array_equal(back, e)


def test_relabel_empty():
    ce, ids = relabel(np.empty((0, 2), dtype=np.int64))
    assert len(ce) == 0 and len(ids) == 0


def test_degrees_triangle():
    e = np.array([[0, 1], [1, 2], [0, 2]])
    assert degrees(e, 3).tolist() == [2, 2, 2]


def test_degrees_isolated_node():
    e = np.array([[0, 1]])
    assert degrees(e, 4).tolist() == [1, 1, 0, 0]


def test_adjacency_sorted():
    e = np.array([[0, 2], [0, 1], [1, 2]])
    adj = adjacency(e, 3)
    assert adj[0].tolist() == [1, 2]
    assert adj[2].tolist() == [0, 1]


def test_adjacency_sets():
    e = np.array([[0, 2], [0, 1]])
    adj = adjacency_sets(e, 3)
    assert adj[0] == {1, 2} and adj[1] == {0} and adj[2] == {0}


def test_induced_edge_count():
    e = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])
    assert induced_edge_count(e, {0, 1, 2}) == 3
    assert induced_edge_count(e, {2, 3}) == 1
    assert induced_edge_count(e, {3}) == 0


def test_induced_subgraph_keeps_labels():
    e = np.array([[0, 1], [1, 2], [2, 3]])
    sub = induced_subgraph(e, {1, 2, 3})
    assert sub.tolist() == [[1, 2], [2, 3]]


def test_induced_subgraph_empty_set():
    e = np.array([[0, 1]])
    assert induced_subgraph(e, set()).shape == (0, 2)


@pytest.mark.parametrize("seed", range(4))
def test_degree_sum_is_twice_edges(seed):
    g = np.random.default_rng(seed)
    e = canonical_edges(g.integers(0, 20, size=(60, 2)))
    assert degrees(e, 20).sum() == 2 * len(e)


def _reference_canonical(e):
    e = np.asarray(e, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


@pytest.mark.parametrize("seed", range(6))
def test_canonical_matches_row_unique_reference(seed):
    g = np.random.default_rng(seed)
    top = int(g.choice([3, 50, 10_000, 2**31 - 1]))
    e = g.integers(0, top, size=(int(g.integers(1, 400)), 2))
    e = np.concatenate([e, e[: len(e) // 3, ::-1]])  # reversed duplicates
    got = canonical_edges(e)
    exp = _reference_canonical(e)
    assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()


def test_canonical_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        canonical_edges(np.array([[-1, 2]]))
    with pytest.raises(ValueError):
        canonical_edges(np.array([[0, 2**31]]))


@pytest.mark.parametrize("seed", range(4))
def test_relabel_matches_searchsorted_reference(seed):
    g = np.random.default_rng(seed)
    e = canonical_edges(g.integers(0, 5_000, size=(300, 2)))
    ce, ids = relabel(e)
    exp_ids = np.unique(e)
    assert np.array_equal(ids, exp_ids)
    assert np.array_equal(ce, np.searchsorted(exp_ids, e))


@pytest.mark.parametrize("seed", range(4))
def test_induced_filters_match_loop_reference(seed):
    g = np.random.default_rng(seed)
    e = canonical_edges(g.integers(0, 60, size=(200, 2)))
    S = set(g.choice(80, size=30, replace=False).tolist())  # some ids > max
    keep = [u in S and v in S for u, v in e.tolist()]
    assert induced_edge_count(e, S) == sum(keep)
    assert np.array_equal(induced_subgraph(e, S), e[np.array(keep, dtype=bool)])


def test_induced_filters_ignore_ids_outside_the_graph():
    e = np.array([[0, 1], [1, 2]])
    assert induced_edge_count(e, {-1, 1, 7}) == 0  # -1 must not wrap to node 2
    assert induced_subgraph(e, {1, 2, 7}).tolist() == [[1, 2]]
