"""The in-process workloads: ``explain-molecules`` and ``explain-large``.

One client drives an :class:`~repro.api.ExplanationService` in a closed
loop.  Each cycle is a cache-missing ``explain`` from a seeded schedule, an
add of a seeded donor graph and, once the database holds more than two
donors, a remove of the oldest one, so the database size stays steady.

``explain-molecules`` serves MUT with live views: the service repairs its
StreamGVEX views on every mutation.  Its reads are ``live_views()`` digests
taken after every mutation, the in-process twin of ``GET /v1/live``.

``explain-large`` serves large SYN graphs without a maintainer, an
explain-only deployment in which mutations only move the cache generation.
Its read re-fetches the view just explained from the result store and
serialises it.  Its ingest is timed until the new graph is visible, that
is, until its explanation is served.

This module imports ``repro`` only inside functions, so that a set-up
probe can time the import itself.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any

import common

MOLECULES = "explain-molecules"
LARGE = "explain-large"

#: Donors kept in the database before each add is paired with a remove.
DONOR_BACKLOG = 2
#: Explain results re-run directly through the explainer after timing.
SAMPLE_CHECKS = 8

LARGE_GRAPHS = 24
LARGE_BASE_SIZE = 80
LARGE_EPOCHS = 12
#: Base size of the SYN donors streamed into ``explain-large``.
DONOR_BASE_SIZE = 30
DONOR_MAX_NODES = 6
MOLECULE_GRAPHS = 60
MOLECULE_EPOCHS = 40
SUBSET_SIZE = 6
MAX_NODES = range(4, 10)


@dataclass
class Setup:
    service: Any
    timings: dict[str, float]


def import_layers() -> None:
    """Import every package the workloads touch (timed as ``import``)."""
    import repro  # noqa: F401
    import repro.api  # noqa: F401
    import repro.api.replication  # noqa: F401
    import repro.api.server  # noqa: F401
    import repro.api.sharding  # noqa: F401
    import repro.datasets  # noqa: F401
    import repro.experiments.setup  # noqa: F401
    import repro.gnn.training  # noqa: F401


def build(workload: str, *, trace_hook=None) -> Setup:
    """Import, build the dataset, train and construct the service.

    ``trace_hook`` runs right after the imports (the traced run installs its
    wrappers there, so dataset build and training are traced too).
    """
    start = time.perf_counter()
    import_layers()
    imported = time.perf_counter()
    if trace_hook is not None:
        trace_hook()
    from repro.api import ExplanationService

    if workload == MOLECULES:
        service = ExplanationService(
            "MUT", epochs=MOLECULE_EPOCHS, num_graphs=MOLECULE_GRAPHS, live_views=True
        )
    elif workload == LARGE:
        from repro.datasets import synthetic
        from repro.gnn import models, training

        database = synthetic.make_ba_motif_synthetic(
            num_graphs=LARGE_GRAPHS, seed=7, base_size=LARGE_BASE_SIZE
        )
        model = models.GNNClassifier(
            feature_dim=8, num_classes=2, hidden_dim=16, num_layers=3, seed=0
        )
        training.Trainer(model, epochs=LARGE_EPOCHS, seed=7).fit(database)
        service = ExplanationService("SYN", database=database, model=model)
    else:
        raise ValueError(f"unknown in-process workload {workload!r}")
    ready = time.perf_counter()
    return Setup(
        service=service,
        timings={"import_s": imported - start, "setup_s": ready - start},
    )


def donor_graphs(workload: str, seed: int):
    """Endless seeded donor graphs, disjoint from the served database."""
    from repro.datasets import synthetic
    from repro.graphs.graph import Graph

    round_index = 0
    while True:
        donor_seed = 10_000 + 1_000 * seed + round_index
        if workload == MOLECULES:
            database = synthetic.make_mutagenicity(num_graphs=32, seed=donor_seed)
        else:
            database = synthetic.make_ba_motif_synthetic(
                num_graphs=16, seed=donor_seed, base_size=DONOR_BASE_SIZE
            )
        for graph, label in zip(database.graphs, database.labels):
            payload = graph.to_dict()
            payload["graph_id"] = None
            yield Graph.from_dict(payload), label
        round_index += 1


def explain_schedule(workload: str, service, seed: int):
    """Endless seeded, pairwise-distinct explain requests.

    MUT: 6-graph subsets of one predicted-label group; label, algorithm
    (``approx``/``stream``) and ``max_nodes`` (4..9) cycle, so every run
    asks each combination equally often and only the graphs vary.
    SYN: ``approx`` over one graph with its predicted label, in rounds
    that each explain every graph once in a seeded order, with ``max_nodes``
    shifting by one per round; every (graph, ``max_nodes``) pair comes once
    before any repeats, and a run that ends mid-round has seen every graph
    about equally often.
    """
    rng = random.Random(seed)
    graphs = list(service.database.graphs)
    predicted = service.model.predict_many(graphs)
    groups: dict[int, list[int]] = {}
    for graph, label in zip(graphs, predicted):
        groups.setdefault(label, []).append(graph.graph_id)
    labels = sorted(groups)
    if workload == LARGE:
        label_of = {graph.graph_id: label for graph, label in zip(graphs, predicted)}
        graph_ids = sorted(label_of)
        rng.shuffle(graph_ids)
        rank = {graph_id: index for index, graph_id in enumerate(graph_ids)}
        for round_index in itertools.count():
            order = list(graph_ids)
            rng.shuffle(order)
            for graph_id in order:
                yield {
                    "algorithm": "approx",
                    "label": label_of[graph_id],
                    "graph_ids": (graph_id,),
                    "max_nodes": MAX_NODES[(round_index + rank[graph_id]) % len(MAX_NODES)],
                }
    seen: set[tuple] = set()
    index = 0
    while True:
        label = labels[index % len(labels)]
        algorithm = ("approx", "stream")[(index // len(labels)) % 2]
        budget = MAX_NODES[(index // (2 * len(labels))) % len(MAX_NODES)]
        members = groups[label]
        graph_ids = tuple(sorted(rng.sample(members, min(SUBSET_SIZE, len(members)))))
        key = (algorithm, label, graph_ids, budget)
        if key in seen:
            continue
        seen.add(key)
        index += 1
        yield {"algorithm": algorithm, "label": label, "graph_ids": graph_ids, "max_nodes": budget}


@dataclass
class Outcome:
    explain_ms: list[float] = field(default_factory=list)
    ingest_ms: list[float] = field(default_factory=list)
    remove_ms: list[float] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cache_misses_ok: bool = True
    schema_ok: bool = True
    #: ``(request, view_signature)`` of every timed explain.
    explained: list[tuple[dict, str]] = field(default_factory=list)
    live_signatures: dict[int, str] | None = None
    speed_probes: list[float] = field(default_factory=list)

    def timed(self, samples: list[float], call):
        """Run one operation; a failure stays in ``samples`` as ``inf``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = call()
        except Exception:  # any failure is counted, never dropped
            self.failed += 1
            samples.append(float("inf"))
            return None
        samples.append((time.perf_counter() - start) * 1000.0)
        return value

    def explains_per_s(self) -> float:
        """Explains completed per second the client spent in explain calls."""
        done = [ms for ms in self.explain_ms if ms != float("inf")]
        return len(done) / (sum(done) / 1000.0) if done else 0.0


def run(workload: str, service, schedule, donors, fifo: list, seconds: float) -> Outcome:
    """The closed loop, for ``seconds``; one cycle per iteration.

    Each explain result is checked against the schema and reduced to its
    signature outside the timed call, so the loop holds no results."""
    from repro.api import explanation_schema, validate_against_schema
    from repro.api.replication import view_signature
    from repro.api.serialize import result_to_dict

    out = Outcome()
    schema = explanation_schema()
    live = workload == MOLECULES

    def live_read():
        return {view.label: view_signature(view) for view in service.live_views()}

    def store_read(request):
        result = service.explain(**request)
        out.cache_misses_ok &= result.provenance.cache_hit
        return json.dumps(result_to_dict(result))

    def ingest(graph, label):
        summary = service.ingest(graph, label)
        if not live:
            # No maintainer: the new graph's view is visible once explained.
            result = service.explain(
                algorithm="approx", graph_ids=[summary["graph_id"]], max_nodes=DONOR_MAX_NODES
            )
            out.cache_misses_ok &= not result.provenance.cache_hit
        return summary

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        out.speed_probes.append(common.speed_probe_ms())
        request = next(schedule)
        result = out.timed(out.explain_ms, lambda: service.explain(**request))
        if result is not None:
            out.cache_misses_ok &= not result.provenance.cache_hit
            envelope = {
                "schema_version": result.provenance.schema_version,
                "kind": "explanation_result",
                "payload": result_to_dict(result),
            }
            out.schema_ok &= not validate_against_schema(envelope, schema)
            out.explained.append((request, view_signature(result.view)))
            if not live:
                out.timed(out.read_ms, lambda: store_read(request))
        graph, label = next(donors)
        summary = out.timed(out.ingest_ms, lambda: ingest(graph, label))
        if summary is not None:
            fifo.append(summary["graph_id"])
        if live:
            out.timed(out.read_ms, live_read)
        if len(fifo) > DONOR_BACKLOG:
            oldest = fifo.pop(0)
            out.timed(out.remove_ms, lambda: service.remove(oldest))
            if live:
                out.timed(out.read_ms, live_read)
    if live:
        out.live_signatures = live_read()
    return out


def check(workload: str, service, outcomes: list[Outcome], seed: int) -> dict[str, bool]:
    """Output checks, run after timing."""
    from repro.api import create_explainer
    from repro.api.replication import view_signature
    from repro.api.types import ExplainRequest

    explained = [item for outcome in outcomes for item in outcome.explained]
    sample = random.Random(seed).sample(explained, min(SAMPLE_CHECKS, len(explained)))
    direct_ok = bool(sample)
    for request, signature in sample:
        wanted = set(request["graph_ids"])
        graphs = [graph for graph in service.database.graphs if graph.graph_id in wanted]
        config = ExplainRequest(
            algorithm=request["algorithm"],
            label=request["label"],
            config=service.config,
            max_nodes=request["max_nodes"],
        ).effective_config()
        explainer = create_explainer(request["algorithm"], service.model, config=config)
        direct_ok &= view_signature(explainer.explain_label(graphs, request["label"])) == signature
    checks = {
        "explain_schema": all(outcome.schema_ok for outcome in outcomes),
        "explain_matches_direct": direct_ok,
        "explains_missed_cache": all(outcome.cache_misses_ok for outcome in outcomes),
    }
    if workload == MOLECULES:
        recompute = create_explainer("stream", service.model, config=service.config)
        live = outcomes[-1].live_signatures or {}
        checks["live_views_match_recompute"] = bool(live) and all(
            view_signature(recompute.explain_label(service.database.graphs, label)) == digest
            for label, digest in live.items()
        )
    return checks
