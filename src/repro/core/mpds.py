"""Algorithm 1 — Top-k Most Probable Densest Subgraphs (distributed).

Dataflow: ``spark.range(θ)`` enumerates possible-world ids; a
``mapInPandas`` kernel samples each partition's worlds (seeded, so runs
are reproducible) and enumerates ALL densest subgraphs of each world
with the exact per-world pipelines in ``repro.graphs``; per-set
frequencies τ̂ are then a Catalyst ``groupBy``/``sum`` aggregation and
the top-k is a sort-limit. One row per (world, densest subgraph), plus
one ``kind='max'`` row per world (the maximum-sized densest subgraph —
Algorithm 5's candidate) and one ``kind='meta'`` row per world carrying
ρ* and the number of densest subgraphs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..graphs.alldense import all_densest
from ..graphs.heuristic import heuristic_dense
from .sampling import sample_block
from .uncertain import UncertainGraph

WORLD_SCHEMA = (
    "world_id long, kind string, nodeset string, set_size int, "
    "rho double, n_densest long, truncated boolean, weight double"
)


def _key(nodes) -> str:
    return ",".join(str(v) for v in sorted(nodes))


def world_results_df(
    spark: SparkSession,
    ug: UncertainGraph,
    theta: int,
    notion: str = "edge",
    seed: int = 0,
    method: str = "mc",
    all_subgraphs: bool = True,
    heuristic: bool = False,
    max_enum: int = 100_000,
    n_partitions: int | None = None,
) -> DataFrame:
    """Per-world densest-subgraph rows for θ sampled worlds (see module doc)."""
    sc = spark.sparkContext
    bc = sc.broadcast((ug.edges, ug.probs))
    if n_partitions is None:
        n_partitions = min(theta, sc.defaultParallelism * 2)

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        edges, probs = bc.value
        for pdf in batches:
            ids = pdf["id"].to_numpy()
            if len(ids) == 0:
                continue
            lo, hi = int(ids.min()), int(ids.max()) + 1
            masks, weights, _ = sample_block(
                probs, lo, hi, seed, method, theta
            )
            rows = []
            for wid in ids:
                row = int(wid) - lo
                we = edges[masks[row]]
                w = float(weights[row])
                if heuristic:
                    hres = heuristic_dense(we, notion)
                    subs = hres.subgraphs
                    rho = float(hres.rho)
                    max_sized = hres.best
                    truncated = False
                else:
                    res = all_densest(we, notion, max_enum)
                    subs = res.subgraphs
                    rho = float(res.rho)
                    max_sized = res.max_sized
                    truncated = res.truncated
                if not all_subgraphs and subs:
                    # Table IX ablation: keep ONE randomly chosen densest
                    # subgraph per world instead of all of them.
                    g = np.random.default_rng(
                        np.random.SeedSequence([seed, 7, int(wid)])
                    )
                    subs = [subs[int(g.integers(len(subs)))]]
                for S in subs:
                    rows.append(
                        (int(wid), "ds", _key(S), len(S), rho,
                         len(subs), truncated, w)
                    )
                if max_sized:
                    rows.append(
                        (int(wid), "max", _key(max_sized), len(max_sized),
                         rho, len(subs), truncated, w)
                    )
                rows.append(
                    (int(wid), "meta", "", 0, rho, len(subs), truncated, w)
                )
            yield pd.DataFrame(
                rows,
                columns=[
                    "world_id", "kind", "nodeset", "set_size", "rho",
                    "n_densest", "truncated", "weight",
                ],
            )

    worlds = spark.range(0, theta, 1, n_partitions)
    return worlds.mapInPandas(gen, schema=WORLD_SCHEMA)


@dataclass
class MPDSResult:
    top: list[tuple[frozenset[int], float]]  # (node set, τ̂) best first
    theta: int

    @property
    def best_set(self) -> frozenset[int]:
        return self.top[0][0] if self.top else frozenset()

    @property
    def best_tau(self) -> float:
        return self.top[0][1] if self.top else 0.0


def topk_mpds(
    spark: SparkSession,
    ug: UncertainGraph,
    k: int = 1,
    theta: int = 160,
    notion: str = "edge",
    seed: int = 0,
    method: str = "mc",
    all_subgraphs: bool = True,
    heuristic: bool = False,
    max_enum: int = 100_000,
) -> MPDSResult:
    """Top-k MPDS estimation (Algorithm 1). τ̂(U) = Σ weights / θ."""
    df = world_results_df(
        spark, ug, theta, notion, seed, method, all_subgraphs,
        heuristic, max_enum,
    )
    agg = (
        df.filter(F.col("kind") == "ds")
        .groupBy("nodeset")
        .agg((F.sum("weight") / F.lit(float(theta))).alias("tau_hat"))
        .orderBy(F.desc("tau_hat"), F.asc("nodeset"))
        .limit(k)
    )
    top = [
        (frozenset(int(x) for x in r["nodeset"].split(",")), float(r["tau_hat"]))
        for r in agg.collect()
    ]
    return MPDSResult(top, theta)


def world_stats(
    spark: SparkSession,
    ug: UncertainGraph,
    theta: int,
    notion: str = "edge",
    seed: int = 0,
    max_enum: int = 100_000,
) -> pd.DataFrame:
    """Per-world (ρ*, #densest subgraphs) — Table VIII's distribution."""
    df = world_results_df(spark, ug, theta, notion, seed, max_enum=max_enum)
    return (
        df.filter(F.col("kind") == "meta")
        .select("world_id", "rho", "n_densest", "truncated")
        .toPandas()
    )
