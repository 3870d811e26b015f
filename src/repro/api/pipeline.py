"""The request pipeline shared by both serving front ends.

:class:`~repro.api.service.ExplanationService` (one process) and
:class:`~repro.api.sharding.ShardRouter` (a sharded tier) answer a request
the same way: build an :class:`ExplainRequest`, resolve an omitted label
from the model's predictions, look the result up in the fingerprint-keyed
view store, compute the view on a miss, and register it as the label's
latest result.  :class:`RequestPipeline` holds every step of that except
the compute (:meth:`RequestPipeline._compute`): the service runs a local
explainer or reads its live maintainer, the router fans out to its shards
and reassembles.  The cache keys, provenance records, post-mutation key
rotation, ingest validation and ``stats()`` header live here too, so the
two front ends cannot drift apart.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.store import ViewStore
from repro.api.types import ExplainRequest, ExplanationResult, Provenance
from repro.core.caching import with_hit_rate
from repro.core.config import Configuration
from repro.core.explanation import ExplanationView, ExplanationViewSet
from repro.core.sampling import estimator_summary
from repro.exceptions import ExplanationError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.sparse import sparse_enabled

if TYPE_CHECKING:
    from repro.api.service import ServiceQuery

__all__ = ["RequestPipeline"]


def _backend() -> str:
    return "sparse" if sparse_enabled() else "legacy"


class RequestPipeline:
    """Label resolution, selection, caching and provenance for a front end.

    A subclass sets ``dataset``, ``database``, ``model``, ``config`` and
    ``_test_ids``, calls :meth:`_start_pipeline`, and implements
    :meth:`_compute`.  All shared state is guarded by ``_lock`` (an RLock):
    the HTTP server handles requests on threads.
    """

    dataset: str | None
    database: GraphDatabase
    model: Any
    config: Configuration
    _test_ids: list[int | None]
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    #: Completes "this <class> is closed; ..." in :meth:`_ensure_open`.
    _CLOSED_REASON = ""

    def _start_pipeline(self, *, cache_size: int, spill_dir: str | Path | None) -> None:
        self._lock = threading.RLock()
        self._closed = False
        # Latest result key per label — what the query facade reads.
        self._latest: dict[int, str] = {}
        # Model-assigned label per graph id, built lazily under the lock
        # (the model is fixed, so one batched pass serves every request's
        # label filtering) and kept in step per mutation.
        self._predicted: dict[int | None, int] | None = None
        self._graphs_by_id: dict[int | None, Graph] = {
            graph.graph_id: graph for graph in self.database.graphs
        }
        self.store = ViewStore(
            capacity=cache_size, spill_dir=spill_dir, graphs_by_id=self._graphs_by_id
        )
        # Cache keys embed the *context* identity (model weights, database
        # size/version, split) next to the request fingerprint, so a
        # persistent cache directory can never serve views computed by a
        # different model or over different database contents.  The weight
        # digest is hashed once; mutations only re-fold the database part.
        self._weights_digest = self._fingerprint_weights()
        self._context_fingerprint = self._fingerprint_context()

    # ------------------------------------------------------------------
    # the explain surface
    # ------------------------------------------------------------------
    def explain(
        self,
        request: ExplainRequest | None = None,
        *,
        algorithm: str = "approx",
        label: int | None = None,
        max_nodes: int | None = None,
        config: Configuration | None = None,
        graph_ids: Sequence[int] | None = None,
        limit: int | None = None,
    ) -> ExplanationResult:
        """Produce (or fetch from cache) one label's explanation view.

        Accepts either a prebuilt :class:`~repro.api.types.ExplainRequest`
        or the equivalent keyword arguments.  The result's provenance
        records whether it was served from cache.
        """
        if request is None:
            request = ExplainRequest(
                algorithm=algorithm,
                label=label,
                config=config or self.config,
                max_nodes=max_nodes,
                graph_ids=tuple(graph_ids) if graph_ids is not None else None,
                limit=limit,
            )
        request = self._resolve_label(request)
        key = self._cache_key(request)
        cached = self._cached(key)
        if cached is not None:
            return cached
        # The compute runs outside the lock so concurrent requests for
        # different jobs proceed in parallel; two concurrent misses on the
        # same key redundantly (but harmlessly) both compute.
        result = self._compute(request)
        if not result.degraded:
            # A partial answer must never be served from (or poison) the
            # cache: the next request recomputes and heals.
            self._remember(key, result)
        return result

    def _compute(self, request: ExplainRequest) -> ExplanationResult:
        """Compute a cache miss (the one step each front end supplies)."""
        raise NotImplementedError

    def _cached(self, key: str) -> ExplanationResult | None:
        with self._lock:
            cached = self.store.get(key)
            if cached is None:
                return None
            self._latest[cached.provenance.label] = key
        return cached.marked_cached()

    def _remember(self, key: str, result: ExplanationResult) -> None:
        with self._lock:
            self.store.put(key, result)
            self._latest[result.provenance.label] = key

    def _result(
        self,
        request: ExplainRequest,
        view: ExplanationView,
        runtime: float,
        graphs: Sequence[Graph],
        missing_shards: Sequence[int] = (),
    ) -> ExplanationResult:
        """Wrap a computed view with its provenance (``graphs`` = the
        graphs the view was computed over)."""
        config = request.effective_config()
        return ExplanationResult(
            view=view,
            provenance=Provenance(
                algorithm=request.algorithm,
                label=request.label,
                config_fingerprint=config.fingerprint(),
                request_fingerprint=request.fingerprint(),
                runtime_seconds=runtime,
                backend=_backend(),
                num_graphs=len(graphs),
                dataset=self.dataset,
                estimator=estimator_summary(config, graphs),
            ),
            degraded=bool(missing_shards),
            missing_shards=tuple(missing_shards),
        )

    def _predicted_labels(self) -> dict[int | None, int]:
        with self._lock:
            if self._predicted is None:
                graphs = [graph for graph in self.database.graphs if graph.num_nodes() > 0]
                if sparse_enabled() and len(graphs) > 1:
                    assigned = self.model.predict_batch(graphs)
                else:
                    assigned = [self.model.predict(graph) for graph in graphs]
                self._predicted = {
                    graph.graph_id: label for graph, label in zip(graphs, assigned)
                }
            return self._predicted

    def _resolve_label(self, request: ExplainRequest) -> ExplainRequest:
        if request.label is not None:
            return request
        with self._lock:
            predicted = self._predicted_labels()
            pool = (
                [predicted[graph_id] for graph_id in request.graph_ids if graph_id in predicted]
                if request.graph_ids is not None
                else list(predicted.values())
            )
        if not pool:
            raise ExplanationError(
                "cannot infer a label to explain: the request selects no "
                "non-empty graphs"
            )
        return request.with_label(min(pool))

    def _select_graphs(self, request: ExplainRequest) -> list[Graph]:
        with self._lock:
            if request.graph_ids is not None:
                wanted = set(request.graph_ids)
                graphs = [graph for graph in self.database.graphs if graph.graph_id in wanted]
            else:
                graphs = list(self.database.graphs)
            if request.limit is not None:
                # Test-split graphs first (the paper explains the test set;
                # train-split graphs only top the group up), matching the
                # experiment runners' label_group semantics.
                test_rank = {graph_id: rank for rank, graph_id in enumerate(self._test_ids)}
                graphs = sorted(
                    graphs, key=lambda graph: test_rank.get(graph.graph_id, len(test_rank))
                )
                predicted = self._predicted_labels()
                graphs = [
                    graph for graph in graphs if predicted.get(graph.graph_id) == request.label
                ][: request.limit]
        return graphs

    # ------------------------------------------------------------------
    # cache keys
    # ------------------------------------------------------------------
    def _fingerprint_weights(self) -> str:
        """Stable hash of the model weights (computed once; the model is
        fixed for the front end's lifetime)."""
        digest = hashlib.sha256()
        for layer in self.model.get_weights():
            for name in sorted(layer):
                array = np.ascontiguousarray(layer[name])
                digest.update(name.encode("utf-8"))
                digest.update(str(array.shape).encode("utf-8"))
                digest.update(array.tobytes())
        return digest.hexdigest()

    def _fingerprint_context(self) -> str:
        """Stable hash of the model weights + database/split identity.

        The database *version* is folded in, so every mutation moves the
        front end onto fresh cache keys — results computed over the old
        contents become unreachable instead of being served stale.
        """
        digest = hashlib.sha256()
        digest.update(self._weights_digest.encode("utf-8"))
        digest.update(str(len(self.database)).encode("utf-8"))
        digest.update(str(self.database.version).encode("utf-8"))
        digest.update(str(self._test_ids).encode("utf-8"))
        return digest.hexdigest()[:12]

    def _key_prefix(self) -> str:
        return (self.dataset or "custom").lower()

    def _cache_key(self, request: ExplainRequest) -> str:
        return f"{self._key_prefix()}-{self._context_fingerprint}-{request.fingerprint()}"

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _check_ingest(self, graph: Graph, graph_id: int | None) -> None:
        """Reject an ingest before anything (database or graph) is touched."""
        if graph_id is not None and graph_id in self._graphs_by_id:
            raise ExplanationError(
                f"graph id {graph_id} is already in the database; "
                "remove it first or ingest without an id to auto-assign one"
            )
        # A graph the model cannot classify (e.g. mismatched feature
        # dimensionality) must be rejected cleanly, not crash mid-delta with
        # the database already grown.  The feature-matrix probe is the cheap
        # structural check — no forward pass.
        if graph.num_nodes() > 0:
            try:
                graph.feature_matrix(getattr(self.model, "feature_dim", None))
            except Exception as error:
                raise ExplanationError(
                    f"cannot ingest graph {graph_id!r}: the model cannot "
                    f"classify it ({error})"
                ) from error

    def _after_mutation(self, kind: str, graph_id: int | None, graph: Graph | None = None) -> None:
        """Bookkeeping after one database mutation (caller holds the lock).

        Every result computed over the previous contents — any algorithm,
        limit or selection — becomes unreachable (keys embed the old context
        fingerprint), so the whole generation is discarded from both store
        tiers.  The graph index and the predicted-label memo are kept in
        step with the delta (O(delta), never a database-wide recompute).
        """
        old_context = self._context_fingerprint
        self._context_fingerprint = self._fingerprint_context()
        self.store.discard_prefix(f"{self._key_prefix()}-{old_context}-")
        self._latest.clear()
        if kind == "add" and graph is not None:
            self._graphs_by_id[graph.graph_id] = graph
            if self._predicted is not None and graph.num_nodes() > 0:
                try:
                    self._predicted[graph.graph_id] = self.model.predict(graph)
                except Exception:
                    # Unclassifiable graph added directly on the database:
                    # drop the memo rather than poison it; a later label
                    # query rebuilds (and surfaces the error to its caller).
                    self._predicted = None
        elif kind == "remove":
            self._graphs_by_id.pop(graph_id, None)
            if self._predicted is not None:
                self._predicted.pop(graph_id, None)

    # ------------------------------------------------------------------
    # stored-view access
    # ------------------------------------------------------------------
    def view_set(self) -> ExplanationViewSet:
        """The latest stored view per label, as one queryable set."""
        views = ExplanationViewSet()
        for result in self.results():
            views.add(result.view)
        return views

    def results(self) -> list[ExplanationResult]:
        """The latest stored result per label (sorted by label)."""
        with self._lock:
            latest = dict(self._latest)
        collected = []
        for label in sorted(latest):
            result = self.store.get(latest[label])
            if result is not None:
                collected.append(result)
        return collected

    def query(self) -> "ServiceQuery":
        """A query facade over every currently stored view."""
        from repro.api.service import ServiceQuery

        return ServiceQuery(self)

    def _stats_header(self) -> dict[str, Any]:
        with self._lock:
            labels_explained = sorted(self._latest)
        return {
            "dataset": self.dataset,
            "num_graphs": len(self.database),
            "database_version": self.database.version,
            "labels_explained": labels_explained,
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "backend": _backend(),
            "cache": with_hit_rate(self.store.stats()),
        }

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExplanationError(
                f"this {type(self).__name__} is closed; {self._CLOSED_REASON}"
            )
