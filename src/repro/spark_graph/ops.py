"""Triangle dataflow over edge DataFrames.

Edge DataFrames have columns (u, v, p) with u < v per row (canonical).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def triangles_df(edges: DataFrame) -> DataFrame:
    """All triangles (a < b < c) with the three edge probabilities.

    Three-way self-join on the canonical (u < v) edge table: (a,b),
    (a,c), (b,c) with a < b < c — each triangle appears exactly once.
    """
    e1 = edges.select(
        F.col("u").alias("a"), F.col("v").alias("b"), F.col("p").alias("p_ab")
    )
    e2 = edges.select(
        F.col("u").alias("a2"), F.col("v").alias("c"), F.col("p").alias("p_ac")
    )
    e3 = edges.select(
        F.col("u").alias("b3"), F.col("v").alias("c3"), F.col("p").alias("p_bc")
    )
    return (
        e1.join(e2, (e1.a == e2.a2) & (e1.b < e2.c))
        .join(e3, (F.col("b") == F.col("b3")) & (F.col("c") == F.col("c3")))
        .select("a", "b", "c", "p_ab", "p_ac", "p_bc")
    )
