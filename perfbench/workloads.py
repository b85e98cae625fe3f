"""The benchmark's workloads and the queries they send.

Each workload is a closed loop with one client: the driver sends the next
query only after the previous one returns. Query ``i`` of a run with
workload seed ``s`` uses the query seed ``s * 1000 + i``, so queries in a
run differ and runs with different seeds share no query.
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.baselines import expected_densest, innermost_eta_core, innermost_gamma_truss
from repro.core.estimate import estimate_set_probs
from repro.core.mpds import topk_mpds
from repro.core.nds import topk_nds
from repro.datasets import biomine_lite, karate_club, lastfm

from replay import Job
from worldchecks import check_estimates, check_topk


@dataclass(frozen=True)
class Query:
    kind: str  # "mpds", "nds" or "pipeline"
    notion: str
    theta: int
    seed: int
    k: int = 1
    l_m: int = 1
    max_enum: int = 100_000


@dataclass
class Workload:
    name: str
    dataset: Callable
    # query(i, workload seed) -> the i-th query of the closed loop
    query: Callable[[int, int], Query]
    # the untimed warm-up query sent during set-up
    warmup: Query
    # fixed query count of the traced pass (counts must repeat exactly)
    trace_queries: int
    # worlds per distinct query type that the untraced run verifies
    check_worlds: int
    # the timed loop ends on a multiple of this many queries, so every
    # run sends the same mix of query types
    cycle: int = 1
    # untimed queries sent once after set-up and before timing, so the
    # timed queries do not pay for lazy imports in the workers and JIT
    # compilation in the JVM
    prewarm: tuple[Query, ...] = ()


def _karate(i: int, seed: int) -> Query:
    s = seed * 1000 + i
    return (
        Query("mpds", "edge", 160, s, k=10),
        Query("mpds", "clique:3", 160, s, k=10),
        Query("nds", "diamond", 160, s, k=1, l_m=2),
    )[i % 3]


def _biomine(i: int, seed: int) -> Query:
    return Query("pipeline", "edge", 16, seed * 1000 + i, k=1, l_m=4)


def _lastfm(i: int, seed: int) -> Query:
    return Query("mpds", "edge", 8, seed * 1000 + i, k=10, max_enum=20_000)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("karate_mix", karate_club, _karate,
                 Query("mpds", "edge", 160, 999_999, k=10),
                 trace_queries=3, check_worlds=12, cycle=3,
                 prewarm=tuple(_karate(i, 999_999) for i in range(6))),
        Workload("biomine_nds_pipeline", biomine_lite, _biomine,
                 Query("nds", "edge", 4, 999_999, k=1, l_m=4),
                 trace_queries=1, check_worlds=2),
        Workload("lastfm_mpds", lastfm, _lastfm,
                 Query("mpds", "edge", 4, 999_999, k=10, max_enum=20_000),
                 trace_queries=1, check_worlds=1),
    )
}


@dataclass
class QueryRecord:
    query: Query
    wall_s: float = 0.0
    jobs: list[Job] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _nucleus_problems(ug, top) -> list[str]:
    """The top-1 NDS must hold most of the planted nucleus.

    Containing all of it is not required: when one sampled world drops a
    nucleus node from its maximum densest subgraph, the correct top-1 is
    the nucleus minus that node (γ̂ = 1 beats the nucleus's 15/16)."""
    nucleus = frozenset(ug.meta.get("nucleus", ()))
    if nucleus and not (top and 2 * len(nucleus & top[0][0]) > len(nucleus)):
        return [f"top-1 NDS holds at most half of the planted nucleus {sorted(nucleus)}"]
    return []


def run_query(spark, ug, q: Query, partitions: int, tracer) -> QueryRecord:
    """Send one query through the public API, time it, check its output.

    A query that raises is recorded with the traceback as its problem."""
    rec = QueryRecord(q)
    t_query = time.perf_counter()
    try:
        if q.kind == "mpds":
            t0 = time.perf_counter()
            with tracer.span("core.mpds.topk_mpds"):
                res = topk_mpds(spark, ug, k=q.k, theta=q.theta, notion=q.notion,
                                seed=q.seed, max_enum=q.max_enum)
            rec.jobs.append(Job("mpds", q.notion, q.theta, q.seed, q.max_enum,
                                partitions, time.perf_counter() - t0))
            rec.problems += check_topk(res.top, q.k, label=f"mpds {q.notion}")
        else:
            t0 = time.perf_counter()
            with tracer.span("core.nds.topk_nds"):
                res = topk_nds(spark, ug, k=q.k, l_m=q.l_m, theta=q.theta,
                               notion=q.notion, seed=q.seed)
            rec.jobs.append(Job("nds", q.notion, q.theta, q.seed, 1,
                                partitions, time.perf_counter() - t0))
            rec.problems += check_topk(res.top, q.k, min_size=q.l_m,
                                       label=f"nds {q.notion}")
        if q.kind == "pipeline":
            rec.problems += _nucleus_problems(ug, res.top)
            with tracer.span("baselines.eds"):
                eds, _ = expected_densest(ug, q.notion)
            with tracer.span("baselines.ucore"):
                core = innermost_eta_core(ug, 0.1)
            with tracer.span("baselines.utruss"):
                truss = innermost_gamma_truss(ug, 0.1)
            cands = [eds, core, truss]
            t0 = time.perf_counter()
            with tracer.span("core.estimate.estimate_set_probs"):
                probs = estimate_set_probs(spark, ug, cands, theta=q.theta,
                                           notion=q.notion, seed=q.seed + 1)
            rec.jobs.append(Job("estimate", q.notion, q.theta, q.seed + 1, 1,
                                partitions, time.perf_counter() - t0, cands))
            rec.problems += check_estimates(probs, len(cands))
    except Exception:  # a failed query is counted, and the loop goes on
        rec.problems.append(traceback.format_exc(limit=4))
    rec.wall_s = time.perf_counter() - t_query
    return rec
