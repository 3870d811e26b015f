"""Mutations racing reads in the shared request pipeline.

Each test forces the interleaving with a hook inside the read (the
predicted-label batch pass, the row assembly) that starts a mutation on
another thread and gives it time to land.  Where the read holds the
front end's lock, the mutation waits and lands afterwards; either way the
read and the state after the mutation must be consistent.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.api.sharding.router as router_module
from repro.api import ExplanationService
from repro.api.sharding import ShardRouter
from repro.core import Configuration
from repro.exceptions import ExplanationError
from repro.graphs import Graph, GraphDatabase

#: How long a hook waits for the racing mutation before the read goes on.
RACE_WINDOW = 0.5


def _seed(mut_database, count: int, name: str) -> GraphDatabase:
    database = GraphDatabase(name)
    for graph, label in zip(mut_database.graphs[:count], mut_database.labels[:count]):
        database.add_graph(graph.copy(), label)
    return database


def test_ingest_during_the_predicted_label_build_is_kept(
    mut_database, trained_mut_model, monkeypatch
):
    service = ExplanationService(
        "MUT", database=_seed(mut_database, 8, "memo-race"), model=trained_mut_model
    )
    donor = mut_database.graphs[10]
    label = trained_mut_model.predict(donor)
    arrival = Graph.from_dict(donor.to_dict() | {"graph_id": None})
    real_predict_batch = trained_mut_model.predict_batch
    racing: list[threading.Thread] = []

    def predict_batch_with_ingest(graphs):
        if not racing:
            racing.append(threading.Thread(target=service.ingest, args=(arrival,)))
            racing[0].start()
            racing[0].join(timeout=RACE_WINDOW)
        return real_predict_batch(graphs)

    monkeypatch.setattr(trained_mut_model, "predict_batch", predict_batch_with_ingest)
    try:
        service.explain(algorithm="random", label=label, limit=10_000)  # builds the memo
        racing[0].join(timeout=60)
        assert not racing[0].is_alive()
        assert arrival.graph_id in service._predicted_labels()
        qualifying = [
            graph
            for graph in service.database.graphs
            if graph.num_nodes() > 0 and trained_mut_model.predict(graph) == label
        ]
        result = service.explain(algorithm="random", label=label, limit=10_000)
        assert result.provenance.num_graphs == len(qualifying)
    finally:
        service.close()


@pytest.mark.parametrize("reader", ["live_views", "stream_explain"])
def test_removes_racing_row_assembly(
    mut_database, trained_mut_model, monkeypatch, reader
):
    config = Configuration(theta=0.08).with_default_bound(0, 8)
    router = ShardRouter(
        "MUT",
        database=_seed(mut_database, 10, "rows-race"),
        model=trained_mut_model,
        num_shards=2,
        config=config,
        backend="inline",
        supervise=False,
    )
    label = 1
    victims = [
        graph.graph_id
        for graph in router.database.graphs
        if trained_mut_model.predict(graph) == label
    ][:3]
    assert victims
    real_assemble = router_module.assemble_view_from_rows
    racing: list[threading.Thread] = []
    armed = threading.Event()

    def assemble_with_remove(rows, row_label, graphs_by_id, **kwargs):
        if armed.is_set():  # one remove per read, after its rows are fetched
            armed.clear()
            remover = threading.Thread(target=router.remove, args=(victims.pop(),))
            racing.append(remover)
            remover.start()
            remover.join(timeout=RACE_WINDOW)
        return real_assemble(rows, row_label, graphs_by_id, **kwargs)

    monkeypatch.setattr(router_module, "assemble_view_from_rows", assemble_with_remove)
    try:
        while victims:
            armed.set()
            if reader == "live_views":
                views = router.live_views()
                subgraphs = [s for view in views for s in view.subgraphs]
            else:
                subgraphs = router.explain(algorithm="stream", label=label).view.subgraphs
            assert subgraphs
            racing[-1].join(timeout=60)
            assert not racing[-1].is_alive()
        # Every removal landed, and the next read reflects all of them.
        remaining = {graph.graph_id for graph in router.database.graphs}
        assert len(remaining) == 10 - len(racing)
        for view in router.live_views():
            assert {s.source_graph.graph_id for s in view.subgraphs} <= remaining
    finally:
        router.close()


def test_readers_and_mutations_stress(mut_database, trained_mut_model):
    """Four threads read while one churns the database, with a tiny switch
    interval; every read must succeed and the final views must agree."""
    router = ShardRouter(
        "MUT",
        database=_seed(mut_database, 8, "stress"),
        model=trained_mut_model,
        num_shards=2,
        config=Configuration(theta=0.08).with_default_bound(0, 8),
        backend="inline",
        supervise=False,
    )
    errors: list[BaseException] = []
    done = threading.Event()

    def read(kind: str) -> None:
        try:
            while not done.is_set():
                if kind == "live":
                    router.live_views()
                else:
                    router.explain(algorithm="stream", label=1)
        except ExplanationError as error:
            errors.append(error)

    def churn() -> None:
        try:
            for index in range(8, 14):
                arrival = Graph.from_dict(
                    mut_database.graphs[index].to_dict() | {"graph_id": None}
                )
                router.ingest(arrival, mut_database.labels[index])
                router.remove(router.database.graphs[0].graph_id)
        except ExplanationError as error:
            errors.append(error)
        finally:
            done.set()

    readers = [
        threading.Thread(target=read, args=(kind,))
        for kind in ("live", "live", "stream", "stream")
    ]
    writer = threading.Thread(target=churn)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers + [writer]:
                thread.start()
            for thread in readers + [writer]:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert errors == []
        remaining = {graph.graph_id for graph in router.database.graphs}
        assert len(remaining) == 8
        for view in router.live_views():
            assert {s.source_graph.graph_id for s in view.subgraphs} <= remaining
    finally:
        router.close()
