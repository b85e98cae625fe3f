"""Distributed DataFrame graph operations (Catalyst all the way).

These express the paper's graph-level quantities as Spark SQL dataflow
(joins/aggregations) rather than per-world Python kernels: triangle
enumeration and the probabilistic density / clustering coefficient
metrics of §VI-B. Each query is cross-checked against DuckDB via
``repro.oracle`` in the test-suite.
"""
from .ops import triangles_df
from .metrics import (
    probabilistic_clustering_coefficient,
    probabilistic_density,
)

__all__ = [
    "triangles_df",
    "probabilistic_density",
    "probabilistic_clustering_coefficient",
]
