"""CPU time and resident memory of a process tree, read from ``/proc``.

The tree is this process and all its descendants: the driver, the Spark
JVM it launches, and the Python workers the JVM forks. A sampler thread
keeps the peak of the summed RSS; CPU time is read at the start and end
of the timed phase. CPU of children that exit and are reaped inside the
tree moves into the parent's ``cutime``/``cstime``, so summing all four
fields over live processes never loses it.
"""
from __future__ import annotations

import os
import threading

CLK_TCK = os.sysconf("SC_CLK_TCK")
PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # process ended between listing and reading
        return None
    return raw[raw.rindex(")") + 2:].split()


def tree_pids(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def tree_cpu_s(root: int) -> float:
    """User + system CPU seconds of the tree, reaped children included."""
    ticks = 0
    for pid in tree_pids(root):
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime (stat fields 14-17)
            ticks += sum(int(x) for x in fields[11:15])
    return ticks / CLK_TCK


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs
    (the ``steal`` field of ``/proc/stat``): wall time that no process
    here could use."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / CLK_TCK


def tree_rss_bytes(root: int) -> dict[str, int]:
    """Summed RSS of the tree, split into the JVM and the Python processes
    (driver, pyspark daemon and workers)."""
    out = {"jvm": 0, "python": 0}
    for pid in tree_pids(root):
        try:
            with open(f"/proc/{pid}/comm") as f:
                kind = "jvm" if f.read().strip() == "java" else "python"
            with open(f"/proc/{pid}/statm") as f:
                out[kind] += int(f.read().split()[1]) * PAGE
        except OSError:  # process ended between listing and reading
            continue
    return out


class PeakRss:
    """Samples the tree's RSS every ``interval`` seconds while running and
    keeps the peak of the total, the JVM part and the Python part; use as
    a context manager around the timed phase."""

    def __init__(self, root: int, interval: float = 0.2) -> None:
        self.root = root
        self.interval = interval
        self.peak = {"total": 0, "jvm": 0, "python": 0}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        rss = tree_rss_bytes(self.root)
        rss["total"] = rss["jvm"] + rss["python"]
        for k, v in rss.items():
            self.peak[k] = max(self.peak[k], v)

    def _run(self) -> None:
        while True:
            self._sample()
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
