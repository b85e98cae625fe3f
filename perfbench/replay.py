"""Replay a Spark kernel job's possible worlds in the driver process.

The kernel runs inside Spark Python workers, where driver-side spans
cannot see it, so the traced pass re-draws the same worlds here and feeds
them to the same public functions (``sample_block``, ``all_densest``).
``spark.range(0, θ, 1, P)`` gives partition i the world ids
[⌊iθ/P⌋, ⌊(i+1)θ/P⌋), and each partition arrives as one Arrow batch, so
each range is one ``sample_block`` call, as in the worker.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.estimate import _induced_density
from repro.core.sampling import sample_block
from repro.graphs.alldense import all_densest

FLOWS = "graphs.maxflow.max_flow"


@dataclass
class Job:
    """One Spark kernel job a query ran: enough to re-draw its worlds."""

    kind: str  # "mpds", "nds" or "estimate"
    notion: str
    theta: int
    seed: int
    max_enum: int
    partitions: int
    wall_s: float = 0.0
    candidates: list = field(default_factory=list)


@dataclass
class World:
    world_id: int
    edges: object  # (m, 2) int64 edge array of the world
    result: object  # DensestResult
    kernel_s: float
    flows: int


@dataclass
class Replay:
    worlds: list[World] = field(default_factory=list)
    sample_s: float = 0.0
    mask_bytes: int = 0


def blocks(theta: int, partitions: int) -> list[tuple[int, int]]:
    spans = [(i * theta // partitions, (i + 1) * theta // partitions)
             for i in range(partitions)]
    return [(lo, hi) for lo, hi in spans if hi > lo]


def _sampled(ug, job: Job, tracer, rep: Replay):
    """Yield (world id, world edges), block by block."""
    for lo, hi in blocks(job.theta, job.partitions):
        t0 = time.perf_counter()
        with tracer.span("core.sampling.sample_block"):
            masks, _, _ = sample_block(ug.probs, lo, hi, job.seed, "mc", job.theta)
        rep.sample_s += time.perf_counter() - t0
        rep.mask_bytes += masks.nbytes
        for row in range(hi - lo):
            yield lo + row, ug.edges[masks[row]]


def replay_kernel(ug, job: Job, tracer, limit: int | None = None) -> Replay:
    """Run ``all_densest`` on the job's worlds (the first ``limit`` only,
    if given), timing each world and counting its max-flows."""
    rep = Replay()
    for wid, we in _sampled(ug, job, tracer, rep):
        if limit is not None and len(rep.worlds) >= limit:
            break
        flows0 = tracer.calls[FLOWS]
        t0 = time.perf_counter()
        with tracer.span("graphs.alldense.all_densest"):
            res = all_densest(we, job.notion, job.max_enum)
        dt = time.perf_counter() - t0
        rep.worlds.append(World(wid, we, res, dt, tracer.calls[FLOWS] - flows0))
    return rep


def replay_estimate(ug, job: Job, tracer) -> Replay:
    """Re-score the candidates on the estimate job's worlds the way
    ``estimate_set_probs`` does: the kernel, then each candidate's
    induced density and containment."""
    rep = Replay()
    scores = []
    for wid, we in _sampled(ug, job, tracer, rep):
        t0 = time.perf_counter()
        with tracer.span("core.estimate.score_world"):
            with tracer.span("graphs.alldense.all_densest"):
                res = all_densest(we, job.notion, max_enum=1)
            for cand in job.candidates:
                if cand:
                    dens = _induced_density(we, job.notion, frozenset(cand))
                    scores.append((res.rho > 0 and dens == res.rho,
                                   set(cand) <= set(res.max_sized)))
        rep.worlds.append(World(wid, we, res, time.perf_counter() - t0, 0))
    return rep
