"""Set up Spark, run one workload untraced or traced, and report.

``run.py`` prepares the environment and then calls :func:`main`. This
module imports pyspark and ``repro``, so it must not be imported before.
"""
from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy
import pyspark
from pyspark import SparkContext
from pyspark.sql import SparkSession

from repro.core.mpds import world_results_df

from proctree import PeakRss, steal_s, tree_cpu_s, tree_pids
from replay import replay_estimate, replay_kernel
from spantrace import NullTracer, Tracer, instrumented, mining_instrumented
from tracemetrics import per_layer_metrics, tail
from worldchecks import check_world
from workloads import WORKLOADS, run_query

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TMP = os.path.join(OUT, "tmp")

# setup_s is the median of this many set-ups in one run
SETUP_REPS = 3
# enough for every workload's driver-side collect and baselines
DRIVER_MEMORY = "2g"


def spark_conf(master: str) -> dict[str, str]:
    # The same session settings as jobs/_common.session, plus what a
    # quiet, self-contained local run needs.
    return {
        "spark.master": master,
        "spark.app.name": "perfbench",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.driver.host": "127.0.0.1",
        "spark.driver.bindAddress": "127.0.0.1",
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={TMP}",
        "spark.local.dir": TMP,
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.shuffle.partitions": "64",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }


def start_session(conf: dict[str, str]):
    builder = SparkSession.builder
    for k, v in conf.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown() -> None:
    """Stop Spark, end the JVM (it exits when its stdin closes) and wait
    until no process this one started is left."""
    spark = SparkSession.getActiveSession()
    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None
    me = os.getpid()
    deadline = time.monotonic() + 30
    while (left := [p for p in tree_pids(me) if p != me]):
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 30
        time.sleep(0.2)


def git_state() -> tuple[str, bool | None]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
        status = subprocess.run(["git", "--no-optional-locks", "-C", ROOT, "status",
                                 "--porcelain"], env=env, capture_output=True,
                                text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", None  # not a git checkout
    return sha, bool(status.strip())


def fingerprint(spark, args, partitions: int) -> dict:
    sc = spark.sparkContext
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "spark_master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "partitions": partitions,
        "arrow_max_records_per_batch": spark.conf.get(
            "spark.sql.execution.arrow.maxRecordsPerBatch"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
    }


def setup(conf, wl, spark=None):
    """Start a session, build the dataset and send the warm-up query.
    Returns (spark, graph, seconds, build seconds, warm-up record)."""
    if spark is not None:
        spark.stop()
    t0 = time.perf_counter()
    spark = start_session(conf)
    tb = time.perf_counter()
    ug = wl.dataset()
    build_s = time.perf_counter() - tb
    warm = run_query(spark, ug, wl.warmup, 0, NullTracer())
    return spark, ug, time.perf_counter() - t0, build_s, warm


def partitions_of(spark, ug, theta: int) -> int:
    return world_results_df(spark, ug, theta).rdd.getNumPartitions()


def check_worlds(ug, rec, limit) -> None:
    """Replay the first ``limit`` worlds of each kernel job of ``rec`` and
    verify them; problems go into the record."""
    for job in rec.jobs:
        if job.kind == "estimate":
            continue
        for w in replay_kernel(ug, job, NullTracer(), limit).worlds:
            rec.problems += [f"world {w.world_id}: {p}"
                             for p in check_world(w.edges, job.notion, w.result)]


def run_untraced(args, conf, wl) -> tuple[dict, list, dict]:
    spark, setups, builds, warm_problems = None, [], [], []
    for _ in range(SETUP_REPS):
        spark, ug, secs, build_s, warm = setup(conf, wl, spark)
        setups.append(secs)
        builds.append(build_s)
        warm_problems += warm.problems
    partitions = partitions_of(spark, ug, wl.query(0, args.seed).theta)
    fp = fingerprint(spark, args, partitions)
    for q in wl.prewarm:
        warm_problems += run_query(spark, ug, q, partitions, NullTracer()).problems

    me = os.getpid()
    records, cpu = [], []
    steal0 = steal_s()
    t_start = time.perf_counter()
    with PeakRss(me) as rss:
        while (time.perf_counter() - t_start < args.seconds
               or len(records) % wl.cycle):
            q = wl.query(len(records), args.seed)
            cpu0 = tree_cpu_s(me)
            records.append(run_query(spark, ug, q, partitions, NullTracer()))
            cpu.append(tree_cpu_s(me) - cpu0)
    timed_s = time.perf_counter() - t_start
    stolen_s = steal_s() - steal0

    seen = set()
    for rec in records:
        key = (rec.query.kind, rec.query.notion)
        if key not in seen and rec.jobs:
            seen.add(key)
            check_worlds(ug, rec, wl.check_worlds)

    walls = [r.wall_s for r in records]
    # CPU per query of each whole cycle: the query types of a mix differ
    # in cost, so a median over single queries would jump between types
    cycle_cpu = [sum(cpu[i:i + wl.cycle]) / wl.cycle
                 for i in range(0, len(cpu), wl.cycle)]
    rates = [sum(j.theta for j in r.jobs) / sum(j.wall_s for j in r.jobs)
             for r in records if r.jobs]
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(walls),
        "worlds_per_s": statistics.median(rates) if rates else 0.0,
        "cpu_s_per_query": statistics.median(cycle_cpu),
        "peak_rss_mb": rss.peak["total"] / 2**20,
    }
    failed = sum(1 for r in records if r.problems)
    detail = {
        "fingerprint": fp,
        "setup_runs_s": setups,
        "dataset_build_s": builds,
        "warmup_problems": warm_problems,
        "timed_s": timed_s,
        "cpu_s_by_query": cpu,
        "steal_s": stolen_s,
        "peak_rss_mb_by_part": {k: v / 2**20 for k, v in rss.peak.items()},
        "queries": len(records),
        "error_rate": failed / len(records),
        "query_tail_s": tail(walls),  # (percentile, seconds) or None
    }
    return metrics, records, detail


def run_traced(args, conf, wl) -> tuple[dict, list, dict]:
    spark, ug, _, build_s, warm = setup(conf, wl)
    partitions = partitions_of(spark, ug, wl.query(0, args.seed).theta)
    fp = fingerprint(spark, args, partitions)
    tracer = Tracer()
    records, kernel_runs, estimate_runs = [], [], []
    for i in range(wl.trace_queries):
        tracer.query = f"q{i}"
        with mining_instrumented(tracer), tracer.span("bench.query"):
            rec = run_query(spark, ug, wl.query(i, args.seed), partitions, tracer)
        records.append(rec)
        for job in rec.jobs:
            tracer.query = f"q{i}.{job.kind}.replay"
            if job.kind == "estimate":
                with instrumented(tracer), tracer.span("bench.replay"):
                    estimate_runs.append(replay_estimate(ug, job, tracer))
                continue
            plain = replay_kernel(ug, job, NullTracer())
            with instrumented(tracer), tracer.span("bench.replay"):
                traced = replay_kernel(ug, job, tracer)
            kernel_runs.append((job, plain, traced))
            for a, b in zip(plain.worlds, traced.worlds):
                if (a.result.rho, a.result.subgraphs, a.result.max_sized) != (
                        b.result.rho, b.result.subgraphs, b.result.max_sized):
                    rec.problems.append(f"world {a.world_id}: traced replay differs")
                rec.problems += [f"world {b.world_id}: {p}" for p in
                                 check_world(b.edges, job.notion, b.result)]
    metrics, layers = per_layer_metrics(
        tracer, kernel_runs, estimate_runs, build_s,
        spark.sparkContext.defaultParallelism)
    failed = sum(1 for r in records if r.problems)
    detail = {
        "fingerprint": fp,
        "warmup_problems": warm.problems,
        "queries": len(records),
        "error_rate": failed / len(records),
        "layers": layers,
        "worlds": [
            {"job": f"{job.kind}:{job.notion}:{job.seed}", "world_id": p.world_id,
             "kernel_ms": 1e3 * p.kernel_s, "traced_ms": 1e3 * t.kernel_s,
             "flows": t.flows, "rho": str(t.result.rho),
             "n_densest": t.result.n_densest, "core_nodes": t.result.core_nodes,
             "truncated": t.result.truncated}
            for job, plain, traced in kernel_runs
            for p, t in zip(plain.worlds, traced.worlds)
        ],
        "spans": tracer.spans,
    }
    return metrics, records, detail


def declared_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(args, master: str) -> int:
    """Run ``args.workload`` on ``master``; print the metric table and the
    JSON result line; return the exit code."""
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    run = run_traced if args.trace else run_untraced
    try:
        metrics, records, detail = run(args, spark_conf(master), WORKLOADS[args.workload])
    finally:
        shutdown()
        shutil.rmtree(TMP, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} != declared {sorted(units)}")

    failed = sum(1 for r in records if r.problems)
    correct = failed == 0 and not detail["warmup_problems"]
    detail["query_records"] = [
        {"kind": r.query.kind, "notion": r.query.notion, "theta": r.query.theta,
         "seed": r.query.seed, "wall_s": r.wall_s, "problems": r.problems,
         "jobs": [{"kind": j.kind, "theta": j.theta, "seed": j.seed,
                   "partitions": j.partitions, "wall_s": j.wall_s} for j in r.jobs]}
        for r in records
    ]
    detail["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(detail, f, default=str)

    for r in records:
        for p in r.problems:
            print(f"perfbench: FAILED {r.query}: {p}", file=sys.stderr)
    for p in detail["warmup_problems"]:
        print(f"perfbench: FAILED warm-up: {p}", file=sys.stderr)
    fp = detail["fingerprint"]
    print(f"# {args.workload} seed={args.seed} master={fp['spark_master']} "
          f"parallelism={fp['default_parallelism']} partitions={fp['partitions']} "
          f"git={fp['git_sha'][:12]}{'+dirty' if fp['git_dirty'] else ''}")
    for name, v in metrics.items():
        print(f"{name:40s} {v:14.6g} {units[name]}")
    print(f"{'error_rate':40s} {detail['error_rate']:14.6g} ratio "
          f"({failed}/{len(records)} queries)")
    if not args.trace:
        t = detail["query_tail_s"]
        print(f"{'query_tail_s':40s} " + (
            f"{t[1]:14.6g} s (p{t[0]:.1f}, n={len(records)})" if t
            else f"{'n/a':>14s} (only {len(records)} queries; needs 20)"))
    print(f"# full record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1

