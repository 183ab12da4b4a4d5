"""``PredictionService``: serve a fitted fairness model to batched traffic.

The service is the consumer of the serving contract the intervention layer
declares: it loads a :class:`~repro.interventions.DeployedModel` (directly,
from a :class:`~repro.interventions.PipelineResult`, or from a saved
artifact), splits incoming requests into micro-batches that it predicts one
after another on the caller's thread, and enforces the intervention's
declared capabilities: a request without group membership is rejected
*only* when the producing intervention declared
``requires_group_at_predict`` — ConFair and DiffFair traffic stays
group-blind end to end, which is the paper's deployment premise.

A :class:`~repro.serving.monitor.FairnessMonitor` can be attached; every
served batch is then scored into a chunk (predictions, audit group labels,
optional delayed ground truth, and the raw features for conformance and
density drift) and committed to the monitor's sliding window.  A fleet
shard serves through :meth:`PredictionService.predict_and_score` instead,
which returns the chunk uncommitted for the fleet front-end's window.

Thread safety
-------------
One :class:`PredictionService` may be shared across caller threads.  The
model predict and the monitor's scoring run outside any lock, so
concurrent requests score concurrently; only the monitor commit, the
``request`` event and the :class:`ServiceStats` accumulation are
serialized under one internal lock.  Concurrent ``predict`` calls
therefore never drop a stats update, and the attached monitor sees whole
batches in a consistent order (the *relative* order of concurrent requests
is whatever the race for the lock resolves to, as for any concurrent
server).  ``close`` is idempotent; a ``predict`` after ``close`` raises
:class:`~repro.exceptions.ValidationError`.  The model itself must be
read-only at predict time (every shipped learner is).
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ArtifactError, ValidationError
from repro.interventions.base import DeployedModel
from repro.interventions.pipeline import PipelineResult
from repro.serving.artifacts import load_artifact
from repro.serving.monitor import FairnessMonitor
from repro.telemetry import (
    DEFAULT_SIZE_BUCKETS,
    EventLog,
    MetricsRegistry,
    get_event_log,
    get_registry,
)


@dataclass
class ServiceStats:
    """Cumulative serving statistics (requests, records, wall time).

    ``total_seconds`` is end to end per served request: model predict, the
    monitor's scoring and commit, and the event emit (the same interval
    ``serving.request_latency_seconds`` observes).  A request that raises is
    not counted.
    """

    n_requests: int = 0
    n_records: int = 0
    total_seconds: float = 0.0

    @property
    def records_per_second(self) -> float:
        return self.n_records / self.total_seconds if self.total_seconds > 0 else 0.0


class PredictionService:
    """Micro-batched serving front-end over a :class:`DeployedModel`.

    Parameters
    ----------
    model:
        A :class:`DeployedModel`, a :class:`PipelineResult` (its ``model`` is
        served), or any fitted estimator exposing ``predict`` (wrapped via
        :meth:`DeployedModel.from_predictor`).
    batch_size:
        Maximum rows per micro-batch.
    monitor:
        Optional :class:`FairnessMonitor` that scores every request (and,
        through :meth:`predict`, commits it to its window).
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry` to record into;
        defaults to the process-wide registry.  When the registry is enabled
        every request feeds ``serving.requests_total`` /
        ``serving.records_total`` counters and the
        ``serving.request_latency_seconds`` / ``serving.batch_rows``
        histograms; request latency is end to end, from the start of the
        model predict until the monitor commit and the event emit are done
        (:class:`ServiceStats` times the same interval).  When disabled the
        cost is one attribute read per request.  Fleet shards pass private
        registries so per-shard histograms merge without double counting.
    events:
        Optional :class:`~repro.telemetry.EventLog` (flight recorder);
        defaults to the process-wide log.  When enabled, every monitored
        request emits a ``request`` event keyed by its sequence stamp (the
        monitor's, or the one a fleet front-end passed), so shard-local
        logs merge bit-identically to the union stream.  Fleet shards pass private logs, mirroring the
        registry discipline.
    shard_id:
        Optional shard identity stamped onto ``serving.request`` spans so a
        stitched fleet trace names which shard served each micro-batch.
    """

    def __init__(
        self,
        model,
        *,
        batch_size: int = 2048,
        monitor: Optional[FairnessMonitor] = None,
        telemetry: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        shard_id: Optional[int] = None,
    ) -> None:
        if isinstance(model, PipelineResult):
            model = model.model
        if not isinstance(model, DeployedModel):
            model = DeployedModel.from_predictor(model, name=type(model).__name__)
        if batch_size < 1:
            raise ValidationError("batch_size must be at least 1")
        self.model = model
        self.batch_size = int(batch_size)
        self.monitor = monitor
        self.stats = ServiceStats()
        self.telemetry = telemetry if telemetry is not None else get_registry()
        self.events = events if events is not None else get_event_log()
        self.shard_id = None if shard_id is None else int(shard_id)
        # Metric handles are resolved once here so the per-request cost when
        # telemetry is enabled is a few lock-guarded integer updates — and a
        # single `enabled` attribute read when it is not.
        self._m_requests = self.telemetry.counter("serving.requests_total")
        self._m_records = self.telemetry.counter("serving.records_total")
        self._m_latency = self.telemetry.histogram("serving.request_latency_seconds")
        self._m_batch_rows = self.telemetry.histogram(
            "serving.batch_rows", buckets=DEFAULT_SIZE_BUCKETS, resolution=1.0
        )
        # Serializes stats accumulation, the monitor commit, and the closed
        # flag; never held across a model predict or a monitor score.
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ factory
    @classmethod
    def from_artifact(cls, path, **kwargs) -> "PredictionService":
        """Build a service from an artifact directory saved by ``save_artifact``.

        Accepts ``deployed_model`` and ``pipeline_result`` artifacts (and any
        artifact whose payload exposes ``predict``).
        """
        loaded = load_artifact(path)
        if isinstance(loaded, PipelineResult):
            loaded = loaded.model
        if not isinstance(loaded, DeployedModel) and not hasattr(loaded, "predict"):
            raise ArtifactError(
                f"Artifact at {path} contains {type(loaded).__name__}, which is not servable"
            )
        return cls(loaded, **kwargs)

    # ------------------------------------------------------------ serving
    @property
    def requires_group(self) -> bool:
        """Whether requests must carry group membership (capability-driven)."""
        return self.model.requires_group

    def predict(self, X, group=None, *, y_true=None, sequence=None, trace_id=None) -> np.ndarray:
        """Serve one request of ``len(X)`` records and return the predictions.

        ``group`` is required only when the model's intervention declared
        ``requires_group_at_predict``; otherwise it is optional audit
        information consumed by the attached monitor (never by the model).
        ``y_true`` (optional, audit) likewise only feeds the monitor.
        ``sequence`` (optional) stamps the monitor chunk with a stream-wide
        position; standalone callers leave it ``None``.
        ``trace_id`` (optional) is the fleet-assigned trace identity for this
        micro-batch: when present (and telemetry is enabled) the request is
        wrapped in a ``serving.request`` span carrying
        ``trace_id``/``shard_id``/``sequence``, and the latency observation
        attaches the trace id as a bucket exemplar, so stitched fleet traces
        and tail-latency buckets resolve to concrete requests.

        Safe to call from multiple threads; raises
        :class:`~repro.exceptions.ValidationError` once the service has been
        closed, and on a request the model or the monitor's scoring rejects
        (which then leaves the monitor, the stats and the event log as they
        were).
        """
        return self._serve(X, group, y_true, sequence, trace_id, commit=True)[0]

    def predict_and_score(self, X, group=None, *, y_true=None, sequence=None, trace_id=None):
        """Serve one request like :meth:`predict`, leaving its chunk uncommitted.

        Returns ``(predictions, chunk)``: the attached monitor's
        :class:`~repro.serving.monitor.MonitorChunk` for the request, or
        ``None`` without a monitor.  The service's own window is not
        touched; the stats, the telemetry and the ``request`` event (keyed
        by ``sequence``) are recorded as :meth:`predict` records them.  A
        :class:`~repro.fleet.FleetService` shard serves through this, and
        the front-end commits every shard's chunks, in sequence order, into
        its one window.
        """
        return self._serve(X, group, y_true, sequence, trace_id, commit=False)

    def _serve(self, X, group, y_true, sequence, trace_id, *, commit: bool):
        if self._closed:
            raise ValidationError(
                "PredictionService is closed; predictions after close() are not "
                "served (create a new service from the same model or artifact)"
            )
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self.model.requires_group and group is None:
            raise ValidationError(
                f"{self.model.name} declared requires_group_at_predict; this request "
                "must include the group array (group-blind serving is only available "
                "for interventions that did not declare the capability)"
            )
        if group is not None:
            group = np.asarray(group).ravel()
            if group.shape[0] != X.shape[0]:
                raise ValidationError("X and group must have the same number of rows")

        # The request span only exists for traced calls (fleet dispatch), so
        # untraced hot paths pay nothing beyond the usual `enabled` read.
        span_cm = nullcontext(None)
        if trace_id is not None and self.telemetry.enabled:
            attributes = {"trace_id": str(trace_id), "rows": int(X.shape[0])}
            if self.shard_id is not None:
                attributes["shard_id"] = self.shard_id
            span_cm = self.telemetry.span("serving.request", **attributes)
        with span_cm as span_handle:
            start = time.perf_counter()
            predictions = self._predict_batched(X, group)
            # Group-blind requests are scored too: the drift channels read
            # features alone, only the fairness counts need `group`.
            chunk = (
                None
                if self.monitor is None
                else self.monitor.score(predictions, group, y_true=y_true, X=X)
            )

            # Stats are read-modify-write and the monitor's sliding window is
            # not internally synchronized; one lock keeps both exact under
            # concurrent callers.
            with self._lock:
                served_sequence = sequence
                if commit and chunk is not None:
                    served_sequence = self.monitor.commit(chunk, sequence=sequence)
                if served_sequence is not None and self.events.enabled:
                    # Keyed by the sequence stamp — never by trace id or
                    # wall clock — so shard logs merge bit-identically.
                    self.events.emit(
                        "request", sequence=int(served_sequence), rows=int(X.shape[0])
                    )
                # End to end: the clock stops after the monitor commit and
                # the event emit, the request's last stages.
                elapsed = time.perf_counter() - start
                self.stats.n_requests += 1
                self.stats.n_records += int(X.shape[0])
                self.stats.total_seconds += elapsed

            if self.telemetry.enabled:
                self._m_requests.inc()
                self._m_records.inc(int(X.shape[0]))
                self._m_latency.observe(
                    elapsed, exemplar=None if trace_id is None else str(trace_id)
                )
            if span_handle is not None and served_sequence is not None:
                span_handle.set(sequence=int(served_sequence))
        return predictions, chunk

    def close(self) -> None:
        """Refuse further predictions.

        Idempotent.  Subsequent :meth:`predict` calls raise
        :class:`~repro.exceptions.ValidationError`.
        """
        with self._lock:
            self._closed = True

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- batching
    def _predict_batched(self, X: np.ndarray, group) -> np.ndarray:
        n = X.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        slices = [slice(i, min(i + self.batch_size, n)) for i in range(0, n, self.batch_size)]
        recording = self.telemetry.enabled
        if recording:
            for sl in slices:
                self._m_batch_rows.observe(sl.stop - sl.start)
        chunks = [self._predict_one(X, group, sl) for sl in slices]
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def _predict_one(self, X: np.ndarray, group, sl: slice) -> np.ndarray:
        group_slice = group[sl] if (group is not None and self.model.requires_group) else None
        return np.asarray(self.model.predict(X[sl], group=group_slice))
