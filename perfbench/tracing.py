"""Span tracing installed from outside the program, for the traced run.

``install()`` replaces each layer's public entry points with a wrapper that
records a span ``(layer, start, end, parent, id)``.  A function is replaced
wherever a ``repro`` module holds it (``repro.core.approx.build_analysis``
and ``repro.core.maintenance.build_analysis`` are the same object), and a
method is replaced on its class, so every caller reaches the wrapper.
Spans stay in memory until the run (or, for a server process, its exit)
reads them.

Self time of a span is its duration minus the union of the intervals its
child spans cover; a layer's self time is the sum over its spans.  Spans
from several processes (the server and its shard workers) are summed per
layer after each process has computed its own self times.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (layer, module, attribute path): what the traced run wraps.  Functions are
# named in their defining module; the wrapper replaces every reference to
# them in loaded ``repro`` modules.  Methods are named as ``Class.method``.
TRACE_POINTS: tuple[tuple[str, str, str], ...] = (
    ("gnn.subset_infer", "repro.gnn.models", "GNNClassifier.predict_proba_subsets"),
    ("gnn.subset_infer", "repro.gnn.models", "GNNClassifier.predict_subsets"),
    ("gnn.subset_infer", "repro.gnn.models", "GNNClassifier.predict_node_subset"),
    ("gnn.subset_infer", "repro.gnn.models", "GNNClassifier.predict_proba_nodes"),
    ("gnn.forward", "repro.gnn.models", "GNNClassifier.forward"),
    ("gnn.forward", "repro.gnn.models", "GNNClassifier.forward_matrices"),
    ("gnn.forward", "repro.gnn.models", "GNNClassifier.predict_logits"),
    ("gnn.forward", "repro.gnn.models", "GNNClassifier.batch_logits"),
    ("gnn.train", "repro.gnn.training", "Trainer.fit"),
    ("datasets.build", "repro.datasets.registry", "load_dataset"),
    ("datasets.build", "repro.datasets.synthetic", "make_ba_motif_synthetic"),
    ("core.sampling", "repro.core.sampling", "build_analysis"),
    ("core.selection", "repro.core.selection", "lazy_greedy_select"),
    ("core.approx", "repro.core.approx", "ApproxGVEX.explain_label"),
    ("core.streaming", "repro.core.streaming", "StreamGVEX.explain_label"),
    ("core.verification", "repro.core.verification", "EVerify.predict"),
    ("core.verification", "repro.core.verification", "EVerify.prime"),
    ("core.verification", "repro.core.verification", "EVerify.is_consistent"),
    ("core.verification", "repro.core.verification", "EVerify.is_counterfactual"),
    ("core.verification", "repro.core.verification", "EVerify.annotate"),
    ("core.summarize", "repro.core.summarize", "summarize_subgraphs"),
    ("mining", "repro.mining.candidates", "PatternGenerator.generate"),
    ("mining", "repro.mining.candidates", "PatternGenerator.generate_incremental"),
    ("mining", "repro.mining.candidates", "PatternGenerator.has_novel_pattern"),
    ("matching", "repro.matching.engine", "MatchEngine.has_matching"),
    ("matching", "repro.matching.engine", "MatchEngine.count_matchings"),
    ("matching", "repro.matching.engine", "MatchEngine.matched_node_sets"),
    ("matching", "repro.matching.engine", "MatchEngine.covered_nodes"),
    ("matching", "repro.matching.engine", "MatchEngine.covered_edges"),
    ("matching", "repro.matching.engine", "MatchEngine.match_many"),
    ("core.maintenance", "repro.core.maintenance", "ViewMaintainer.apply_delta"),
    ("core.maintenance", "repro.core.maintenance", "ViewMaintainer.view_for"),
    ("core.wal", "repro.core.wal", "WriteAheadLog.append"),
    ("api.service", "repro.api.service", "ExplanationService.explain"),
    ("api.service", "repro.api.service", "ExplanationService.ingest"),
    ("api.service", "repro.api.service", "ExplanationService.remove"),
    ("api.service", "repro.api.service", "ExplanationService.live_views"),
    ("api.serialize", "repro.api.serialize", "result_to_dict"),
    ("api.serialize", "repro.api.serialize", "view_to_dict"),
    ("api.server", "repro.api.server", "_ExplanationRequestHandler.do_GET"),
    ("api.server", "repro.api.server", "_ExplanationRequestHandler.do_POST"),
    # Router-side compute, and the router's wait on a worker round trip;
    # the worker-side handling is subtracted from the wait (see summarize).
    ("api.sharding", "repro.api.sharding.router", "ShardRouter.explain"),
    ("api.sharding", "repro.api.sharding.router", "ShardRouter.ingest"),
    ("api.sharding", "repro.api.sharding.router", "ShardRouter.remove"),
    ("api.sharding", "repro.api.sharding.router", "ShardRouter.live_views"),
    ("api.sharding.wait", "repro.api.sharding.router", "_ProcessWorker.request"),
    ("api.sharding.handle", "repro.api.sharding.worker", "ShardHost.handle"),
)

#: Layers reported as ``<layer>.self_s`` / ``<layer>.calls``.
LAYERS: tuple[str, ...] = (
    "gnn.subset_infer",
    "gnn.forward",
    "core.sampling",
    "core.selection",
    "core.approx",
    "core.streaming",
    "core.verification",
    "core.summarize",
    "mining",
    "matching",
    "core.maintenance",
    "core.wal",
    "api.service",
    "api.serialize",
    "api.server",
    "api.sharding",
)


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.restore: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def reset(self) -> None:
        """Forget the spans recorded so far."""
        self.spans = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def current(self) -> int:
        return self._stack()[-1]

    def wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((layer, start, end, parent, span_id))

        return traced

    def run_as_child(self, parent: int, fn, *args, **kwargs):
        """Run ``fn`` on this thread with ``parent`` as the enclosing span."""
        stack = self._stack()
        saved = list(stack)
        stack[:] = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved


TRACER = Tracer()


class _TracingExecutor(ThreadPoolExecutor):
    """Pool whose tasks keep the submitting thread's span as their parent,
    so a router fan-out's worker calls count as children of the router span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(TRACER.run_as_child, TRACER.current(), fn, *args, **kwargs)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def install() -> None:
    """Wrap every trace point.  Import-time work is traced only from here
    on, so call this right after ``import repro``."""
    if TRACER.restore:
        return
    for layer, module_name, path in TRACE_POINTS:
        owner, name = _resolve(module_name, path)
        original = owner.__dict__[name]
        traced = TRACER.wrap(original, layer)
        if isinstance(owner, type):
            TRACER.restore.append((owner, name, original))
            setattr(owner, name, traced)
            continue
        # A plain function: replace it in its defining module and in every
        # loaded repro module that imported it by name.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                module.__dict__.get(name) is original
            ):
                TRACER.restore.append((module, name, original))
                setattr(module, name, traced)
    router = importlib.import_module("repro.api.sharding.router")
    TRACER.restore.append((router, "ThreadPoolExecutor", router.ThreadPoolExecutor))
    router.ThreadPoolExecutor = _TracingExecutor


def uninstall() -> None:
    """Put every original back.  Methods bound while tracing was installed
    (a database hook, for one) keep their wrapper."""
    while TRACER.restore:
        owner, name, original = TRACER.restore.pop()
        setattr(owner, name, original)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per-layer ``{"self_s", "total_s", "calls"}`` from one process's spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _layer, start, end, parent, _span_id in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    )
    for layer, start, end, _parent, span_id in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out[layer]
        entry["self_s"] += (end - start) - covered
        entry["total_s"] += end - start
        entry["calls"] += 1
    return dict(out)


def merge(summaries) -> dict[str, dict[str, float]]:
    """Sum per-layer summaries of several processes."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    )
    for summary in summaries:
        for layer, entry in summary.items():
            for key in ("self_s", "total_s", "calls"):
                out[layer][key] += entry[key]
    return dict(out)


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """``<layer>.self_s`` and ``<layer>.calls`` for every reported layer.

    ``api.sharding`` self time is the router's own compute plus its wait on
    worker round trips minus the time the workers spent handling them (the
    pipe, pickling and scheduling cost), plus the workers' dispatch self time.
    """
    empty = {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    sharding = dict(summary.get("api.sharding", empty))
    wait = summary.get("api.sharding.wait", empty)
    handle = summary.get("api.sharding.handle", empty)
    sharding["self_s"] += wait["self_s"] - handle["total_s"] + handle["self_s"]
    sharding["calls"] += wait["calls"]
    merged = dict(summary, **{"api.sharding": sharding})
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        entry = merged.get(layer, empty)
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
    return metrics
