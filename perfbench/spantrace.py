"""In-memory spans for the traced replay, and the wrappers that record them.

A span is ``[name, start, end, parent, query]``: ``parent`` is the index
of the enclosing span (``-1`` at the root) and ``query`` the id of the
query or replay it belongs to. Spans stay in memory and are written out
once, when the run ends.

``instrumented(tracer)`` and ``mining_instrumented(tracer)`` wrap the
public functions of each layer for the duration of a ``with`` block, by
replacing the names through which the program calls them, and put the
originals back on exit. Nothing is wrapped outside those blocks, so
untraced code runs the program unmodified.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import repro.core.nds as nds_mod
import repro.graphs.alldense as alldense_mod
from repro.graphs.maxflow import FlowNetwork

# (module, attribute, span name). The span name is ``<layer>.<function>``
# where the layer is the module the function is defined in.
PATCHES = [
    (alldense_mod, "charikar_peel", "graphs.peeling.charikar_peel"),
    (alldense_mod, "instance_peel", "graphs.peeling.instance_peel"),
    (alldense_mod, "instance_core", "graphs.peeling.instance_core"),
    (alldense_mod, "k_core_nodes", "graphs.kcore.k_core_nodes"),
    (alldense_mod, "goldberg_search", "graphs.goldberg.goldberg_search"),
    (alldense_mod, "build_edge_network", "graphs.goldberg.build_edge_network"),
    (alldense_mod, "build_clique_network", "graphs.goldberg.build_clique_network"),
    (alldense_mod, "build_pattern_network", "graphs.goldberg.build_pattern_network"),
    (alldense_mod, "_enumerate_from_residual", "graphs.alldense.enumerate"),
    (alldense_mod, "tarjan_scc", "graphs.scc.tarjan_scc"),
    (alldense_mod, "condensation", "graphs.scc.condensation"),
    (alldense_mod, "descendants_bitsets", "graphs.scc.descendants_bitsets"),
    (alldense_mod, "list_cliques", "graphs.cliques.list_cliques"),
    (alldense_mod, "sub_cliques", "graphs.cliques.sub_cliques"),
    (alldense_mod, "enumerate_instances", "graphs.patterns.enumerate_instances"),
    (alldense_mod, "group_instances", "graphs.patterns.group_instances"),
    (FlowNetwork, "max_flow", "graphs.maxflow.max_flow"),
]

NAME, START, END, PARENT, QUERY = range(5)


class Tracer:
    """Collects spans and call counts; ``query`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.query = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.query]
        self.spans.append(rec)
        self.calls[name] += 1
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (total
        minus the time its direct children cover; spans of one thread
        nest, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        table: dict[str, dict[str, float]] = {}
        for i, rec in enumerate(self.spans):
            row = table.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return table


class NullTracer:
    """Stand-in for the untraced pass: spans cost one call and record nothing."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.query = ""

    @contextmanager
    def span(self, name: str):
        yield None


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every kernel function in ``PATCHES`` for the duration of the
    block (used around the replay only, so that flows the driver-side
    baselines run are not counted as kernel work)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES]
    try:
        for owner, attr, name in PATCHES:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


@contextmanager
def mining_instrumented(tracer: Tracer):
    """Wrap TFP mining as ``topk_nds`` calls it in the driver, counting the
    transactions it is given."""
    mine = nds_mod.topk_closed_itemsets

    def traced_mine(transactions, *args, **kwargs):
        tracer.calls["core.tfp.transactions"] += len(transactions)
        tracer.calls["core.tfp.distinct_transactions"] += len(
            {t for t, _ in transactions})
        with tracer.span("core.tfp.topk_closed_itemsets"):
            return mine(transactions, *args, **kwargs)

    nds_mod.topk_closed_itemsets = traced_mine
    try:
        yield tracer
    finally:
        nds_mod.topk_closed_itemsets = mine
