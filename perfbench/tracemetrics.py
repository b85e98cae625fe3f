"""Per-layer metrics from the traced replay.

Times named ``*_s`` are sums of span durations over the traced pass;
counts are call counts or exact per-world figures, which repeat across
replays at the same seed. Per-world kernel times (``world_ms_*``) and the
kernel time inside Spark/Arrow overhead come from the untraced replay of
the same worlds, so tracing does not inflate them. A layer a workload
never calls reports 0.
"""
from __future__ import annotations

import statistics

import numpy as np


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it; None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    idx = n - 11
    return 100.0 * (idx + 1) / n, sorted(values)[idx]


def per_layer_metrics(tracer, kernel_runs, estimate_runs, build_s: float,
                      parallelism: int) -> tuple[dict, dict]:
    """Metrics named ``<module>.<metric>``, plus per-layer and per-span
    tables of calls, total seconds and self seconds."""
    table = tracer.layer_table()

    def total(*names: str) -> float:
        return sum(table[n]["total_s"] for n in names if n in table)

    def calls(*names: str) -> int:
        return sum(table[n]["calls"] for n in names if n in table)

    def layer(prefix: str) -> list[str]:
        return [n for n in table if n.rsplit(".", 1)[0] == prefix]

    builds = [n for n in layer("graphs.goldberg") if ".build_" in n]
    plain = [w for _, p, _ in kernel_runs for w in p.worlds]
    traced = [w for _, _, t in kernel_runs for w in t.worlds]
    results = [w.result for w in traced]
    # NDS asks the kernel for one densest set (max_enum=1), so only MPDS
    # worlds say how many sets tie and whether max_enum cut them off.
    mpds = [w.result for job, _, t in kernel_runs if job.kind == "mpds" for w in t.worlds]
    world_nodes = sum(len(np.unique(w.edges)) for w in traced)
    core_nodes = [r.core_nodes for r in results]
    kernel_jobs = [job for job, _, _ in kernel_runs]
    world_ms = [1e3 * w.kernel_s for w in plain]
    plain_kernel = sum(w.kernel_s for w in plain) + sum(p.sample_s for _, p, _ in kernel_runs)
    job_s = sum(j.wall_s for j in kernel_jobs) - total("core.tfp.topk_closed_itemsets")
    overhead_s = job_s - plain_kernel / parallelism
    mask_bytes = sum(t.mask_bytes for _, _, t in kernel_runs) + sum(
        r.mask_bytes for r in estimate_runs)
    median_ms = statistics.median(world_ms) if world_ms else 0.0
    # below 20 worlds there is no tail percentile; report the median
    tail_pct, tail_ms = tail(world_ms) or (50.0, median_ms)

    m = {
        "graphs.peeling.peel_s": total(*layer("graphs.peeling")),
        "graphs.peeling.peels": calls(*layer("graphs.peeling")),
        "graphs.kcore.core_s": total(*layer("graphs.kcore")),
        "graphs.goldberg.build_s": total(*builds),
        "graphs.goldberg.builds": calls(*builds),
        "graphs.maxflow.max_flow_s": total("graphs.maxflow.max_flow"),
        "graphs.maxflow.max_flows": calls("graphs.maxflow.max_flow"),
        "graphs.maxflow.flows_per_world_p50":
            statistics.median(w.flows for w in traced) if traced else 0,
        "graphs.scc.scc_s": total(*layer("graphs.scc")),
        "graphs.alldense.n_densest_mean":
            statistics.fmean(r.n_densest for r in mpds) if mpds else 0.0,
        "graphs.alldense.n_densest_max": max((r.n_densest for r in mpds), default=0),
        "core.mpds.rows_out": sum(r.n_densest + bool(r.max_sized) + 1 for r in results),
        "graphs.alldense.kernel_s": total("graphs.alldense.all_densest"),
        "graphs.alldense.self_s": sum(table[n]["self_s"] for n in layer("graphs.alldense")),
        "graphs.alldense.world_ms_p50": median_ms,
        "graphs.alldense.world_ms_tail": tail_ms,
        "graphs.alldense.world_ms_max": max(world_ms, default=0.0),
        "graphs.alldense.skew": max(world_ms) / median_ms if median_ms else 0.0,
        "graphs.alldense.core_nodes_p50": statistics.median(core_nodes) if core_nodes else 0,
        "graphs.alldense.core_nodes_max": max(core_nodes, default=0),
        "graphs.alldense.core_ratio": sum(core_nodes) / world_nodes if world_nodes else 0.0,
        "graphs.alldense.truncated_worlds": sum(1 for r in mpds if r.truncated),
        "graphs.alldense.empty_worlds": sum(1 for r in results if r.rho == 0),
        "core.mpds.job_s": job_s,
        "core.mpds.tasks": sum(j.partitions for j in kernel_jobs),
        "core.mpds.overhead_s": overhead_s,
        "core.mpds.overhead_share": overhead_s / job_s if job_s else 0.0,
        "core.sampling.sample_s": total("core.sampling.sample_block"),
        "core.sampling.mask_mb": mask_bytes / 2**20,
        "core.estimate.score_s": total("core.estimate.score_world"),
        "core.estimate.worlds_rerun": calls("core.estimate.score_world"),
        "baselines.eds_s": total("baselines.eds"),
        "baselines.ucore_s": total("baselines.ucore"),
        "baselines.utruss_s": total("baselines.utruss"),
        "core.tfp.mine_s": total("core.tfp.topk_closed_itemsets"),
        "core.tfp.transactions": tracer.calls["core.tfp.transactions"],
        "core.tfp.distinct_transactions": tracer.calls["core.tfp.distinct_transactions"],
        "graphs.cliques.list_s": total(*layer("graphs.cliques")),
        "graphs.patterns.enumerate_s": total(*layer("graphs.patterns")),
        "datasets.build_s": build_s,
        "trace.overhead_ratio":
            sum(w.kernel_s for w in traced) / sum(w.kernel_s for w in plain)
            if plain else 0.0,
    }
    layers: dict[str, dict[str, float]] = {}
    for name, row in table.items():
        acc = layers.setdefault(name.rsplit(".", 1)[0],
                                {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += row[key]
    return m, {"by_layer": layers, "by_span": table,
               "world_ms_tail_percentile": tail_pct}
