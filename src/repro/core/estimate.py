"""Sampling estimators for ARBITRARY node sets (baseline evaluation).

Tables III/IV/VII/XI/XII report the estimated densest-subgraph
probability τ̂(U) and containment probability γ̂(U) of node sets produced
by *other* methods (EDS, cores, trusses, DDS, heuristics). Per sampled
world the kernel computes ρ* and the maximum-sized densest subgraph
once, then scores every candidate: U is densest iff its induced density
equals ρ* (> 0); U is contained iff U ⊆ the max-sized densest subgraph
(footnote 5). Aggregation is a Catalyst groupBy over candidate ids.

Also exact expected densities (no sampling, Theorem 7 / linearity).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..graphs.alldense import all_densest, notion_instances
from ..graphs.graph import induced_mask, relabel
from ..graphs.patterns import instance_pattern_edges
from .sampling import sample_block
from .uncertain import UncertainGraph


def _induced_density(
    edges: np.ndarray, notion: str, U: frozenset[int]
) -> Fraction:
    """Density of the subgraph induced by U in a deterministic graph."""
    if not U:
        return Fraction(0)
    ce, ids = relabel(edges[induced_mask(edges, U)])
    return Fraction(len(notion_instances(ce, len(ids), notion)), len(U))


def estimate_set_probs(
    spark: SparkSession,
    ug: UncertainGraph,
    candidates: list[frozenset[int]],
    theta: int = 160,
    notion: str = "edge",
    seed: int = 0,
    method: str = "mc",
) -> pd.DataFrame:
    """τ̂ and γ̂ for each candidate set; rows indexed by candidate order."""
    sc = spark.sparkContext
    bc = sc.broadcast((ug.edges, ug.probs, [set(c) for c in candidates]))
    n_part = min(theta, sc.defaultParallelism * 2)

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        edges, probs, cands = bc.value
        for pdf in batches:
            ids = pdf["id"].to_numpy()
            if len(ids) == 0:
                continue
            lo, hi = int(ids.min()), int(ids.max()) + 1
            masks, weights, _ = sample_block(probs, lo, hi, seed, method, theta)
            rows = []
            for wid in ids:
                row = int(wid) - lo
                we = edges[masks[row]]
                w = float(weights[row])
                res = all_densest(we, notion, max_enum=1)
                for ci, U in enumerate(cands):
                    if not U:  # empty baseline set (e.g. empty truss)
                        rows.append((ci, 0.0, 0.0))
                        continue
                    dens = _induced_density(we, notion, frozenset(U))
                    is_ds = int(res.rho > 0 and dens == res.rho)
                    contained = int(
                        bool(res.max_sized) and U <= set(res.max_sized)
                    )
                    rows.append((ci, is_ds * w, contained * w))
            yield pd.DataFrame(
                rows, columns=["cand_id", "tau_w", "gamma_w"]
            )

    worlds = spark.range(0, theta, 1, n_part)
    out = (
        worlds.mapInPandas(gen, "cand_id int, tau_w double, gamma_w double")
        .groupBy("cand_id")
        .agg(
            (F.sum("tau_w") / F.lit(float(theta))).alias("tau_hat"),
            (F.sum("gamma_w") / F.lit(float(theta))).alias("gamma_hat"),
        )
        .toPandas()
        .set_index("cand_id")
        .sort_index()
    )
    return out.reindex(range(len(candidates)), fill_value=0.0)


def expected_density(ug: UncertainGraph, U: frozenset[int], notion: str = "edge") -> float:
    """Exact expected density of the subgraph induced by U.

    Edge density: Σ_{e ⊆ U} p(e) / |U| (linearity). Clique/pattern
    density: Theorem 7 — Σ over instances within U of Π edge probs,
    divided by |U|.
    """
    if not U:
        return 0.0
    keep = induced_mask(ug.edges, U)
    sub_e = ug.edges[keep]
    sub_p = ug.probs[keep]
    if notion == "edge":
        return float(sub_p.sum() / len(U))
    prob_of = {
        (int(u), int(v)): float(p) for (u, v), p in zip(sub_e, sub_p)
    }
    ce, ids = relabel(sub_e)
    total = 0.0
    for inst in notion_instances(ce, len(ids), notion).tolist():
        w = 1.0
        for a, b in instance_pattern_edges(inst, notion):
            oa, ob = int(ids[a]), int(ids[b])
            w *= prob_of[(min(oa, ob), max(oa, ob))]
        total += w
    return total / len(U)
