"""``config_from_canonical`` rebuilds every field ``canonical_dict()`` emits.

Shard workers and replicas are built from the canonical dict, so a field
lost on the way back would make them compute under a different
configuration than the one the router or primary reports in provenance.
"""

from __future__ import annotations

import json

import pytest

from repro.api.replication import config_from_canonical
from repro.api.sharding import ShardRouter
from repro.core import Configuration
from repro.graphs import GraphDatabase

CONFIGS = {
    "default": Configuration(),
    "sampled": Configuration(
        objective="sampled", sample_budget=64, epsilon=0.2, delta=0.1, sample_threshold=32
    ),
    "stream_batching": Configuration(stream_batching="on"),
    "selection_strategy": Configuration(selection_strategy="eager"),
    "custom_bounds": Configuration(theta=0.08).with_default_bound(1, 7).with_bound(1, 2, 5),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_canonical_round_trip_keeps_the_fingerprint(name):
    config = CONFIGS[name]
    # Through JSON, as the bootstrap payloads travel.
    payload = json.loads(json.dumps(config.canonical_dict()))
    assert config_from_canonical(payload).fingerprint() == config.fingerprint()


def test_inline_router_workers_run_the_router_config(mut_database, trained_mut_model):
    config = Configuration(
        objective="sampled", epsilon=0.2, stream_batching="on"
    ).with_default_bound(0, 8)
    database = GraphDatabase("config-seed")
    for graph, label in zip(mut_database.graphs[:6], mut_database.labels[:6]):
        database.add_graph(graph.copy(), label)
    with ShardRouter(
        "MUT",
        database=database,
        model=trained_mut_model,
        num_shards=2,
        config=config,
        backend="inline",
        supervise=False,
    ) as router:
        for worker in router._workers:
            assert worker.host.service.config.fingerprint() == config.fingerprint()
