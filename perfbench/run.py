"""MPDS/NDS query benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload karate_mix --seed 0 --seconds 25 --trace 0

Run from the repository root. ``--trace 0`` sets up Spark three times
(median reported as ``setup_s``), sends the workload's queries back to
back for ``--seconds`` seconds and reports the end-to-end metrics.
``--trace 1`` sets up once, sends a fixed number of queries, then
replays each query's worlds in this process, untraced and traced, and
reports the per-layer metrics. Both print a metric table and, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; they write the full record
(environment fingerprint, per-query data, and for ``--trace 1`` every
span) to ``perfbench/out/``. The exit code is 0 only if every output
check passed. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TMP = os.path.join(HERE, "out", "tmp")

MAX_CORES = 4


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--master", default=None,
                   help="Spark master, local[N] with N <= nproc "
                        f"(default local[min({MAX_CORES}, nproc)])")
    return p.parse_args()


def prepare_environment() -> None:
    """Make the Spark JVM and its Python workers find ``repro`` and keep
    every scratch file inside the checkout, before pyspark is imported."""
    os.makedirs(TMP, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["SPARK_LOCAL_IP"] = "127.0.0.1"
    os.environ["SPARK_LOCAL_DIRS"] = TMP
    os.environ["TMPDIR"] = TMP
    sys.path.insert(0, SRC)


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    master = args.master or f"local[{min(MAX_CORES, nproc)}]"
    m = re.fullmatch(r"local\[(\d+)\]", master)
    if not m or not 1 <= int(m.group(1)) <= nproc:
        print(f"perfbench: master {master!r} must be local[N] with 1 <= N <= "
              f"nproc={nproc}", file=sys.stderr)
        return 2
    prepare_environment()
    import harness

    return harness.main(args, master)


if __name__ == "__main__":
    sys.exit(main())
