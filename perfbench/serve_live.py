"""The ``serve-live`` workload: ``repro serve --shards 2`` driven open loop.

The server runs as a child process (``serve_launcher.py``) with a
write-ahead log in the run's scratch directory, and the whole workload runs
on one CPU (``PINNED_CPU``).  Requests follow a fixed
schedule of ``SLOTS_PER_S`` slots per second that repeats the cycle in
``MIX``, and are sent over one connection.  A request that falls due while
the one before it is in flight waits for it, and its latency is timed from
the moment it was due, so a stall also counts against the requests queued
behind it.  Between requests the client runs speed probes and then spins,
so the CPU never idles.

* ``add``: ``POST /v1/ingest`` of a seeded donor graph, disjoint from the
  served database;
* ``remove``: ``POST /v1/ingest`` ``op=remove`` of the oldest donor whose
  add was acknowledged, which keeps the database size steady;
* ``read``: ``GET /v1/live``;
* ``explain``: ``POST /v1/explain`` (``approx``) over a seeded 3-graph
  subset of one predicted-label group; every mutation moves the database
  version, so each explain misses the result cache.

The rate keeps the tier well below capacity, so each latency percentile
measures service time, not a queue that the machine's speed swings would
grow and shrink.  Operations never overlap: with two connections a
``GET /v1/live`` that overlapped a mutation could fail (see the findings
in ``README.md``), and how often that happened varied from run to run.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
import inprocess

EPOCHS = 40
SHARDS = 2
#: One cycle of schedule slots.  The idle slot (``None``) after the explain,
#: the longest operation, gives it 100 ms before the next read is due,
#: which it meets even when the machine runs at half speed.  The add follows
#: the read, whose tail is short, so neither an add nor a read queues
#: behind a long operation.
MIX = ("read", "add", "remove", "explain", None)
#: Schedule slots per second: 16 operations per second on average, well
#: below the tier's capacity.
SLOTS_PER_S = 20.0
RATE = SLOTS_PER_S * sum(kind is not None for kind in MIX) / len(MIX)
#: Cold server starts per run; the last one serves the workload.
SETUP_LAUNCHES = 3
#: Donors added before the schedule starts, so a remove always has a target.
WARM_DONORS = 4
#: The one CPU the whole workload runs on.  Requests never overlap, so the
#: tier needs one CPU at a time.  Spread over two vCPUs, every hand-off
#: between the client, the router and a worker had to wake another vCPU,
#: the host charged that wait as steal time, and it moved the p90s by up to
#: 45% between runs.
PINNED_CPU = max(os.sched_getaffinity(0))
#: No speed probe starts closer than this to a request's due time.
PROBE_MARGIN_S = 0.01
REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 120.0
SAMPLE_CHECKS = 8
#: Graphs per explain request.
SUBSET_SIZE = 3


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    setup_s: float


def _request(port: int, method: str, path: str, body: dict | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None
    finally:
        connection.close()


def launch(workdir: Path, name: str, trace_dir: Path | None) -> Server:
    """Spawn the server; set-up time runs until ``/v1/health`` answers."""
    wal_dir = workdir / f"wal-{name}"
    command = [sys.executable, str(Path(__file__).with_name("serve_launcher.py"))]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    command += [
        "--", "--dataset", "MUT", "--shards", str(SHARDS), "--wal-dir", str(wal_dir),
        "--port", "0", "--epochs", str(EPOCHS),
    ]
    start = time.perf_counter()
    log = open(workdir / f"server-{name}.log", "w")
    process = subprocess.Popen(
        command, env=common.child_env(), stdout=subprocess.PIPE, stderr=log, text=True
    )
    log.close()
    lines: queue.Queue = queue.Queue()
    threading.Thread(
        target=lambda: [lines.put(line) for line in process.stdout], daemon=True
    ).start()
    deadline = start + BOOT_TIMEOUT_S
    port = None
    while port is None:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            stop(Server(process, 0, 0.0))
            raise RuntimeError("server did not report its port in time") from None
        if "listening on http://" in line:
            port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
    while True:
        try:
            status, _ = _request(port, "GET", "/v1/health")
            if status == 200:
                break
        except OSError:
            pass
        if time.perf_counter() > deadline:
            stop(Server(process, port, 0.0))
            raise RuntimeError("server never answered /v1/health")
        time.sleep(0.005)
    return Server(process, port, time.perf_counter() - start)


def stop(server: Server) -> None:
    """Graceful drain (SIGTERM), then make sure the process is gone."""
    if server.process.poll() is None:
        server.process.send_signal(signal.SIGTERM)
        try:
            server.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.process.kill()
            server.process.wait(timeout=30)


def server_peak_rss_mb(server: Server) -> float:
    pid = server.process.pid
    return common.peak_rss_mb_pid(pid) + sum(
        common.peak_rss_mb_pid(child) for child in common.child_pids(pid)
    )


@dataclass
class Sample:
    kind: str
    due: float
    sent: float
    done: float
    ok: bool
    body: dict | None = None
    request: dict | None = None

    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0 if self.ok else float("inf")


@dataclass
class Session:
    """One run of the schedule against one server.  ``samples`` holds the
    scheduled operations in plan order; ``warm`` holds the adds made before
    the schedule starts, which count as attempted but in no percentile."""

    samples: list[Sample] = field(default_factory=list)
    warm: list[Sample] = field(default_factory=list)
    mutations: list[tuple[int, str, int, int | None, dict | None]] = field(default_factory=list)
    window_s: float = 0.0
    final_live: dict | None = None
    health: dict | None = None
    rss_mb: float = 0.0
    speed_probes: list[float] = field(default_factory=list)

    def attempted(self) -> list[Sample]:
        return self.samples + self.warm

    def latencies(self, kind: str) -> list[float]:
        return [s.latency_ms() for s in self.samples if s.kind == kind]


class LoadGenerator:
    """Open-loop sender over one connection: each operation is due at a
    planned offset from the start, whether or not earlier ones have
    finished.  One that falls due while another is in flight is sent
    when that one completes, and its latency still runs from its due time.

    Operations never overlap, so each latency is the tier's service time
    plus any wait behind the operation before it."""

    def __init__(self, server: Server, seed: int, groups) -> None:
        self.server = server
        self.rng = random.Random(seed)
        self.donors = inprocess.donor_graphs(inprocess.MOLECULES, seed)
        self.groups = groups
        self.labels = sorted(groups)
        self.session = Session()
        self.acked: list[int] = []
        self.explains = 0

    def add(self, due: float) -> Sample:
        graph, label = next(self.donors)
        return self._mutate("add", due, {"graph": graph.to_dict(), "label": int(label)})

    def _mutate(self, kind: str, due: float, body: dict) -> Sample:
        sample = self._send(kind, due, "POST", "/v1/ingest", body)
        if sample.ok:
            version = sample.body["database_version"]
            graph_id = sample.body["graph_id"]
            if kind == "add":
                self.acked.append(graph_id)
            self.session.mutations.append(
                (version, kind, graph_id, body.get("label"), body.get("graph"))
            )
        return sample

    def _send(self, kind: str, due: float, method: str, path: str, body=None) -> Sample:
        sent = time.perf_counter()
        try:
            status, payload = _request(self.server.port, method, path, body)
            ok = 200 <= status < 300
        except (OSError, ValueError, http.client.HTTPException) as error:
            ok, payload = False, {"error": repr(error)}
        return Sample(kind, due, sent, time.perf_counter(), ok, payload)

    def op(self, kind: str, due: float) -> Sample:
        if kind == "add":
            return self.add(due)
        if kind == "remove":
            if not self.acked:
                now = time.perf_counter()
                return Sample("remove", due, now, now, False)
            return self._mutate("remove", due, {"op": "remove", "graph_id": self.acked.pop(0)})
        if kind == "read":
            return self._send("read", due, "GET", "/v1/live")
        # Labels and budgets cycle, so every run explains each
        # (label, max_nodes) pair equally often; only the graphs vary.
        label = self.labels[self.explains % len(self.labels)]
        budgets = inprocess.MAX_NODES
        budget = budgets[(self.explains // len(self.labels)) % len(budgets)]
        self.explains += 1
        members = self.groups[label]
        request = {
            "algorithm": "approx",
            "label": label,
            "max_nodes": budget,
            "graph_ids": sorted(self.rng.sample(members, min(SUBSET_SIZE, len(members)))),
        }
        sample = self._send("explain", due, "POST", "/v1/explain", request)
        sample.request = request
        return sample

    def schedule(self, seconds: float) -> list[tuple[float, str]]:
        """Slot ``i`` holds ``MIX[i % len(MIX)]``, due ``i / SLOTS_PER_S`` after the start."""
        slots = range(int(seconds * SLOTS_PER_S))
        return [
            (index / SLOTS_PER_S, MIX[index % len(MIX)])
            for index in slots
            if MIX[index % len(MIX)] is not None
        ]

    def run(self, seconds: float) -> Session:
        """Warm-up adds, then the schedule."""
        for _ in range(WARM_DONORS):
            self.session.warm.append(self.add(time.perf_counter()))
        start = time.perf_counter() + 0.05
        for offset, kind in self.schedule(seconds):
            due = start + offset
            # Never sleep: probe, then spin until the request is due.  A
            # sleeping client leaves the CPU idle, and on the shared VM an
            # idle vCPU took up to 6 ms to run again, which landed on the
            # next request's latency.
            while due - time.perf_counter() > PROBE_MARGIN_S:
                self.session.speed_probes.append(common.speed_probe_ms())
            while time.perf_counter() < due:
                pass
            self.session.samples.append(self.op(kind, due))
        self.session.window_s = time.perf_counter() - start
        return self.session


def _session(server: Server, context, seed: int, seconds: float) -> Session:
    predicted = context.model.predict_many(context.database.graphs)
    groups: dict[int, list[int]] = {}
    for graph, label in zip(context.database.graphs, predicted):
        groups.setdefault(label, []).append(graph.graph_id)
    session = LoadGenerator(server, seed, groups).run(seconds)
    _, session.final_live = _request(server.port, "GET", "/v1/live")
    _, session.health = _request(server.port, "GET", "/v1/health")
    session.rss_mb = server_peak_rss_mb(server)
    return session


def _witnesses(view) -> list[str]:
    return sorted(json.dumps(subgraph.to_dict(), sort_keys=True) for subgraph in view.subgraphs)


def _check(session: Session, context, seed: int) -> tuple[dict[str, bool], float]:
    """Schema, direct-explainer and live-view identity checks (after timing).

    A multi-shard explain concatenates the shards' views (shard order, one
    pattern summary per shard), so its witness tier is compared with the
    direct explainer as a set; the share of sampled explains whose whole
    ``view_signature`` also matches is returned next to the checks.
    """
    from repro.api import (
        ExplanationService,
        create_explainer,
        explanation_schema,
        validate_against_schema,
    )
    from repro.api.replication import view_signature
    from repro.api.serialize import view_from_dict
    from repro.api.types import ExplainRequest
    from repro.graphs import Graph, GraphDatabase

    explains = [s for s in session.samples if s.kind == "explain" and s.ok]
    schema = explanation_schema()
    schema_ok = all(not validate_against_schema(s.body, schema) for s in explains)
    graphs_by_id = {graph.graph_id: graph for graph in context.database.graphs}
    direct_ok = bool(explains)
    identical = []
    for sample in random.Random(seed).sample(explains, min(SAMPLE_CHECKS, len(explains))):
        request = sample.request
        config = ExplainRequest(
            algorithm="approx", label=request["label"], max_nodes=request["max_nodes"]
        ).effective_config()
        wanted = set(request["graph_ids"])
        graphs = [graph for graph in context.database.graphs if graph.graph_id in wanted]
        view = create_explainer("approx", context.model, config=config).explain_label(
            graphs, request["label"]
        )
        served = view_from_dict(sample.body["payload"]["view"], graphs_by_id=graphs_by_id)
        direct_ok &= _witnesses(view) == _witnesses(served)
        identical.append(view_signature(view) == view_signature(served))

    reference = ExplanationService(
        "MUT",
        database=GraphDatabase.from_dict(context.database.to_dict()),
        model=context.model,
        live_views=True,
    )
    try:
        for _version, kind, graph_id, label, graph in sorted(session.mutations):
            if kind == "add":
                reference.ingest(Graph.from_dict(graph), label, graph_id=graph_id)
            else:
                reference.remove(graph_id)
        expected = {str(view.label): view_signature(view) for view in reference.live_views()}
    finally:
        reference.close()
    served_live = (session.final_live or {}).get("signatures")
    checks = {
        "explain_schema": schema_ok,
        "explain_witnesses_match_direct": direct_ok,
        "live_views_match_single_process": served_live == expected,
    }
    return checks, sum(identical) / len(identical) if identical else 0.0


def _layer_metrics(trace_dir: Path, window_start: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from every traced process, over the measured window."""
    import tracing

    summaries, memo_hits, memo_total = [], 0, 0
    metrics: dict[str, tuple[float, str]] = {}
    for path in sorted(trace_dir.glob("*.json")):
        payload = json.loads(path.read_text())
        spans = [tuple(span) for span in payload["spans"]]
        if path.name.startswith("server"):
            setup = tracing.summarize(spans)
            metrics["import.s"] = (payload["import_s"], "s")
            metrics["datasets.build_s"] = (setup.get("datasets.build", {}).get("total_s", 0.0), "s")
            metrics["gnn.train_s"] = (setup.get("gnn.train", {}).get("total_s", 0.0), "s")
        summaries.append(tracing.summarize([s for s in spans if s[1] >= window_start]))
        memo = payload["memo"]
        before = [stats for stamp, stats in memo if stamp <= window_start] or [memo[0][1]]
        after = memo[-1][1]
        memo_hits += after["hits"] - before[-1]["hits"]
        memo_total += (after["hits"] + after["misses"]) - (before[-1]["hits"] + before[-1]["misses"])
    metrics.update(tracing.layer_metrics(tracing.merge(summaries)))
    metrics["matching.memo_hit_ratio"] = (memo_hits / memo_total if memo_total else 0.0, "ratio")
    return metrics


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.experiments import prepare_context

    # This process, the server and its workers (which inherit the mask) share
    # one CPU; see PINNED_CPU.
    os.sched_setaffinity(0, {PINNED_CPU})
    workdir = common.WORK / f"serve-live-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    context = prepare_context("MUT", epochs=EPOCHS)
    metrics: dict[str, tuple[float, str]] = {}
    info: dict[str, tuple[float, str]] = {}
    servers: list[Server] = []
    try:
        if not trace:
            setups = []
            for index in range(SETUP_LAUNCHES):
                server = launch(workdir, f"s{index}", None)
                servers.append(server)
                setups.append(server.setup_s)
                if index < SETUP_LAUNCHES - 1:
                    stop(server)
            session = _session(servers[-1], context, seed, seconds)
            sessions = [session]
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (common.peak_rss_mb_self() + session.rss_mb, "MB")
            metrics.update(common.latency_metrics("explain", session.latencies("explain")))
            explained = sum(1 for s in session.samples if s.kind == "explain" and s.ok)
            metrics["explains_per_s"] = (explained / session.window_s, "1/s")
            metrics.update(common.latency_metrics("ingest", session.latencies("add")))
            metrics.update(common.latency_metrics("read", session.latencies("read")))
            info.update(common.latency_metrics("remove", session.latencies("remove")))
            info["loadgen.late_p90_ms"] = (_late_p90(session), "ms")
            for kind in ("explain", "add", "read", "remove"):
                info[f"{kind}_samples"] = (len(session.latencies(kind)), "count")
            info["offered_rate"] = (RATE, "1/s")
        else:
            untraced_server = launch(workdir, "untraced", None)
            servers.append(untraced_server)
            untraced = _session(untraced_server, context, seed, seconds / 2)
            stop(untraced_server)
            trace_dir = workdir / "trace"
            trace_dir.mkdir()
            traced_server = launch(workdir, "traced", trace_dir)
            servers.append(traced_server)
            window_start = time.perf_counter()
            # The /v1/health call marks the window start in every worker's
            # match-memo samples.
            _request(traced_server.port, "GET", "/v1/health")
            traced = _session(traced_server, context, seed, seconds / 2)
            stop(traced_server)
            sessions = [untraced, traced]
            metrics.update(_layer_metrics(trace_dir, window_start))
            cache = traced.health.get("cache", {})
            shard_cache = traced.health.get("shard_cache_aggregate", {})
            hits = cache.get("hits", 0) + shard_cache.get("hits", 0)
            lookups = hits + cache.get("misses", 0) + shard_cache.get("misses", 0)
            metrics["api.store.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
            metrics["api.sharding.respawns"] = (traced.health.get("respawns", 0), "count")
            metrics["loadgen.late_p90_ms"] = (_late_p90(traced), "ms")
            metrics.update(
                common.trace_overhead(
                    {"explain": untraced.latencies("explain"), "ingest": untraced.latencies("add")},
                    {"explain": traced.latencies("explain"), "ingest": traced.latencies("add")},
                )
            )
    finally:
        for server in servers:
            stop(server)
    checks: dict[str, bool] = {}
    for session in sessions:
        session_checks, identical = _check(session, context, seed)
        for name, ok in session_checks.items():
            checks[name] = checks.get(name, True) and ok
    info["explain_signature_identical_frac"] = (identical, "ratio")
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "metrics": metrics,
        "info": info,
        "checks": checks,
        "attempted": sum(len(session.attempted()) for session in sessions),
        "failed": sum(1 for session in sessions for s in session.attempted() if not s.ok),
        "speed_probes": [ms for session in sessions for ms in session.speed_probes],
        # The open loop's explain rate is set by the schedule, not by speed.
        "fixed": {"explains_per_s"},
    }


def _late_p90(session: Session) -> float:
    return common.percentile([(s.sent - s.due) * 1000.0 for s in session.samples], 0.9)
