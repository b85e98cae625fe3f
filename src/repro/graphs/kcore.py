"""The k-core of an instance array (edges, h-cliques or ψ-instances).

These run per sampled possible world inside Spark tasks, and once per
graph for the EDS baseline. ``k_core_nodes`` works in numpy passes over
the ``(m, r)`` instance array: each pass drops every node whose
(weighted) instance degree is below k, then drops the instances those
nodes touch, until a pass drops nothing. The k-core is unique, so it
does not depend on the order of removals. A pass costs O(n + r·m); the
pass count is the longest chain of removals that each wait on the one
before: 4–6 on sampled biomine_lite worlds, the tail length for a clique
with a long path attached.
"""
from __future__ import annotations

import numpy as np

from .graph import degrees, edge_mask


def k_core_nodes(
    instances: np.ndarray, n: int, k: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Node ids (compact) of the k-core: the largest node set in which
    every node lies in instances of total weight ≥ k (weight 1 each when
    ``weights`` is omitted). Empty array if none survive."""
    if k <= 0:
        return np.arange(n, dtype=np.int64)
    inst = np.asarray(instances, dtype=np.int64)
    w = None if weights is None else np.asarray(weights, dtype=np.int64)
    alive = np.ones(n, dtype=bool)  # nodes in no instance have degree 0 < k
    while True:
        drop = alive & (degrees(inst, n, w) < k)
        if not drop.any():
            return np.flatnonzero(alive).astype(np.int64)
        alive &= ~drop
        keep = edge_mask(inst, alive)
        inst = inst[keep]
        if w is not None:
            w = w[keep]
