"""``FleetService``: the front-end of the sharded serving fleet.

The front-end accepts requests (sync ``predict``, or ``predict_async`` for
asyncio callers), sends each request whole to the next shard worker
round-robin, stamps it with a stream-wide **sequence number**, and
aggregates the per-shard :class:`~repro.serving.ServiceStats` and monitor
states into one fleet-level view: :attr:`FleetService.monitor` is the
shards' windows merged through
:meth:`~repro.serving.FairnessMonitor.merge_state_dicts` — the union-stream
monitor, bit for bit.

The shard call runs on the caller's thread.  Picking the shard and the
sequence stamp is the only step taken under the fleet's lock, so concurrent
callers are served concurrently (both worker types are safe for concurrent
``predict``).

Determinism contract: because each request goes whole to one shard in
round-robin order, the sequence-stamped shard windows merge to a monitor
*bit-identical* to a single :class:`~repro.serving.PredictionService` that
served the same request stream.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.exceptions import FleetError, ValidationError
from repro.serving.monitor import FairnessMonitor
from repro.serving.service import ServiceStats
from repro.telemetry import (
    DEFAULT_SIZE_BUCKETS,
    EVENT_LOG_SCHEMA_VERSION,
    EventLog,
    MetricsRegistry,
    get_event_log,
    get_registry,
)


class FleetService:
    """Send requests round-robin to shard workers; aggregate their monitors and stats.

    Parameters
    ----------
    workers:
        The shard workers (:class:`~repro.fleet.InlineShardWorker` /
        :class:`~repro.fleet.ProcessShardWorker`, or anything speaking their
        protocol).  The fleet owns them: ``close`` closes every worker.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry` for the
        *front-end's* own metrics (``fleet.requests_total``,
        ``fleet.request_rows``); defaults to the process-wide registry.
        Shard-side serving metrics live in the workers' private registries
        and are merged — exactly, like the monitors — into
        :meth:`fleet_report` / :meth:`telemetry_report`.
    events:
        Optional :class:`~repro.telemetry.EventLog` for the *front-end's*
        flight recorder (alarm edges and mitigation transitions are emitted
        where the merged monitor is observed); defaults to the process-wide
        log.  Shard-side request events live in the workers' private logs
        and fold into the union-stream log in :meth:`events_report`.
    """

    def __init__(
        self,
        workers: Sequence,
        *,
        telemetry: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        workers = list(workers)
        if not workers:
            raise FleetError("FleetService needs at least one shard worker")
        self.workers = workers
        self.telemetry = telemetry if telemetry is not None else get_registry()
        self.events = events if events is not None else get_event_log()
        self._m_requests = self.telemetry.counter("fleet.requests_total")
        self._m_rows = self.telemetry.histogram(
            "fleet.request_rows", buckets=DEFAULT_SIZE_BUCKETS, resolution=1.0
        )
        self.n_requests = 0
        self._sequence = 0
        # Requests that returned or raised.  The merged-monitor cache is
        # keyed on it, not on `_sequence`: a request is dispatched before its
        # shard adds the batch to its window, so a read overlapping it must
        # not be reused once it completes.
        self._completed = 0
        self._next_worker = 0
        self._lock = threading.Lock()
        self._monitor_cache: Optional[tuple] = None
        self._closed = False

    # ---------------------------------------------------------- dispatching
    @staticmethod
    def trace_id_for(sequence: int) -> str:
        """The deterministic trace id of the request stamped ``sequence``.

        Derived from the sequence stamp (not a random uuid, not a clock) so
        the same replayed stream produces the same trace ids run over run —
        a forensics session can name a trace before re-running it.
        """
        return f"fleet-{int(sequence):06d}"

    def predict(self, X, group=None, *, y_true=None) -> np.ndarray:
        """Serve one request on the next shard, on the caller's thread."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if group is not None:
            group = np.asarray(group).ravel()
            if group.shape[0] != X.shape[0]:
                raise ValidationError("X and group must have the same number of rows")
        if y_true is not None:
            y_true = np.asarray(y_true).ravel()
            if y_true.shape[0] != X.shape[0]:
                raise ValidationError("X and y_true must have the same number of rows")
        with self._lock:
            if self._closed:
                raise ValidationError(
                    "FleetService is closed; predictions after close() are not served"
                )
            worker = self.workers[self._next_worker]
            self._next_worker = (self._next_worker + 1) % len(self.workers)
            sequence = self._sequence
            self._sequence += 1
            self.n_requests += 1
        if self.telemetry.enabled:
            self._m_requests.inc()
            self._m_rows.observe(X.shape[0])
        try:
            return worker.predict(
                X, group, y_true=y_true, sequence=sequence, trace_id=self.trace_id_for(sequence)
            )
        finally:
            with self._lock:
                self._completed += 1

    async def predict_async(self, X, group=None, *, y_true=None) -> np.ndarray:
        """:meth:`predict` for asyncio callers, run on the default executor."""
        return await asyncio.to_thread(self.predict, X, group, y_true=y_true)

    # ----------------------------------------------------------- aggregation
    def snapshots(self):
        """One :class:`~repro.fleet.ShardSnapshot` per shard, in shard order."""
        return [worker.snapshot() for worker in self.workers]

    def _cached_monitor(self):
        """``(completed, cached merged monitor or None)``, read under the lock.

        Take the snapshots to merge only after this read: a monitor cached
        under ``completed`` then holds every request completed by then.
        """
        with self._lock:
            completed, cached = self._completed, self._monitor_cache
        if cached is not None and cached[0] == completed:
            return completed, cached[1]
        return completed, None

    def _merge(self, completed: int, snapshots=None) -> Optional[FairnessMonitor]:
        """Merge the shard windows of ``snapshots`` (taken now when ``None``)
        and cache the result under ``completed``."""
        template = None
        for worker in self.workers:
            template = worker.monitor_template()
            if template is not None:
                break
        if template is None:
            return None
        if snapshots is None:
            snapshots = self.snapshots()
        states = [
            snapshot.monitor_state
            for snapshot in snapshots
            if snapshot.monitor_state is not None
        ]
        if not states:
            return None
        merged_state = FairnessMonitor.merge_state_dicts(
            states, window_size=template.window_size
        )
        merged = template.load_state_dict(merged_state)
        with self._lock:
            self._monitor_cache = (completed, merged)
        return merged

    @property
    def monitor(self) -> Optional[FairnessMonitor]:
        """The shards' monitor windows merged into the union-stream monitor.

        Merged lazily and cached until the next request completes: repeated
        reads between requests (a replay step reads statuses then the
        summary) reuse one merge.  ``None`` when no shard carries a monitor.
        """
        completed, merged = self._cached_monitor()
        if merged is not None:
            return merged
        return self._merge(completed)

    @staticmethod
    def _total_stats(snapshots) -> ServiceStats:
        return ServiceStats(
            sum(snapshot.stats.n_requests for snapshot in snapshots),
            sum(snapshot.stats.n_records for snapshot in snapshots),
            sum(snapshot.stats.total_seconds for snapshot in snapshots),
        )

    @property
    def stats(self) -> ServiceStats:
        """Aggregated shard stats."""
        return self._total_stats(self.snapshots())

    def fleet_report(self) -> Dict[str, Any]:
        """One fleet-level report: merged window view plus per-shard stats.

        Every shard is snapshotted once; the merged window comes from the
        same snapshots (or from the cache, when no request has completed
        since the last merge).  Every shard entry carries its
        ``cold_start_seconds`` and the ``mmap_cache`` hit/miss outcome of its
        artifact load.  When the shards record telemetry, each entry
        additionally reports its request-latency quantiles, and the report
        gains a ``telemetry`` section whose ``merged`` view folds the
        per-shard histograms together exactly (integer sufficient
        statistics — bit-identical to one service observing the union
        stream).
        """
        completed, merged = self._cached_monitor()
        snapshots = self.snapshots()
        if merged is None:
            merged = self._merge(completed, snapshots)
        shard_exports: Dict[int, Dict[str, Any]] = {
            snapshot.shard_id: MetricsRegistry.export_state(snapshot.telemetry_state)
            for snapshot in snapshots
            if snapshot.telemetry_state is not None
        }
        shards = []
        for snapshot in snapshots:
            entry: Dict[str, Any] = {
                "shard_id": snapshot.shard_id,
                "n_requests": snapshot.stats.n_requests,
                "n_records": snapshot.stats.n_records,
                "records_per_second": round(snapshot.stats.records_per_second, 1),
                "cold_start_seconds": round(snapshot.cold_start_seconds, 4),
                "mmap_cache": snapshot.mmap_cache,
            }
            export = shard_exports.get(snapshot.shard_id)
            if export is not None:
                latency = export["histograms"].get("serving.request_latency_seconds")
                if latency is not None:
                    entry["latency_quantiles"] = latency["quantiles"]
            shards.append(entry)
        total = self._total_stats(snapshots)
        report: Dict[str, Any] = {
            "n_shards": len(self.workers),
            "n_requests": self.n_requests,
            "shards": shards,
            "n_records": total.n_records,
            "records_per_second": round(total.records_per_second, 1),
        }
        if shard_exports:
            states = [
                snapshot.telemetry_state
                for snapshot in snapshots
                if snapshot.telemetry_state is not None
            ]
            merged_state = MetricsRegistry.merge_state_dicts(states)
            report["telemetry"] = {
                "n_reporting_shards": len(states),
                "merged": MetricsRegistry.export_state(merged_state),
            }
        if merged is not None:
            report["windowed"] = merged.windowed_summary()
        return report

    def telemetry_report(self) -> Dict[str, Any]:
        """The fleet's ``--metrics-out`` payload: front-end + shards + merge.

        ``frontend`` is the front-end registry's dump (its spans include the
        dispatch path), each ``shards`` entry carries that shard's summary
        *and* mergeable state, and ``merged`` folds the shard states into
        the exact union view.  Shards report only while telemetry is
        enabled and recording into private registries.
        """
        snapshots = self.snapshots()
        shards = []
        states = []
        for worker, snapshot in zip(self.workers, snapshots):
            if snapshot.telemetry_state is None:
                continue
            states.append(snapshot.telemetry_state)
            entry = {
                "shard_id": snapshot.shard_id,
                "cold_start_seconds": snapshot.cold_start_seconds,
                "mmap_cache": snapshot.mmap_cache,
                "export": MetricsRegistry.export_state(snapshot.telemetry_state),
                "state": snapshot.telemetry_state,
            }
            if hasattr(worker, "trace"):
                # Worker-side request spans (trace_id/shard_id/sequence) so a
                # dump alone can stitch a fleet trace without live workers.
                entry["spans"] = worker.trace()
            shards.append(entry)
        payload: Dict[str, Any] = {
            "telemetry_version": 1,
            "frontend": {
                "export": self.telemetry.export(),
                "state": self.telemetry.state_dict(),
            },
            "shards": shards,
        }
        if states:
            merged_state = MetricsRegistry.merge_state_dicts(states)
            payload["merged"] = {
                "export": MetricsRegistry.export_state(merged_state),
                "state": merged_state,
            }
        return payload

    def events_report(self) -> Dict[str, Any]:
        """The fleet's ``--events-out`` payload: front-end + shards + merge.

        ``frontend`` is the front-end log (alarm edges, channel snapshots,
        mitigation transitions — emitted where the merged monitor is
        observed), each ``shards`` entry is that shard's private log
        (``request`` events, worker lifecycle), and ``merged`` folds them
        all by sequence stamp into the union-stream log — bit-identical to
        the log one :class:`~repro.serving.PredictionService` would have
        recorded serving the same stream.
        """
        shards = []
        states = []
        for snapshot in self.snapshots():
            if snapshot.events_state is None:
                continue
            states.append(snapshot.events_state)
            shards.append({"shard_id": snapshot.shard_id, "state": snapshot.events_state})
        payload: Dict[str, Any] = {
            "events_version": EVENT_LOG_SCHEMA_VERSION,
            "frontend": {"state": self.events.state_dict()},
            "shards": shards,
        }
        payload["merged"] = {
            "state": EventLog.merge_state_dicts([self.events.state_dict()] + states)
        }
        return payload

    def trace(self, *, trace_id: Optional[str] = None) -> Dict[str, Any]:
        """Stitched frontend + shard span view, optionally for one trace id.

        The front-end contributes its dispatch-path spans; every worker that
        can report spans (inline: its private registry; process: over the
        pipe) contributes the ``serving.request`` spans it served, each
        carrying ``trace_id``/``shard_id``/``sequence`` attributes.
        """
        shards = []
        for worker in self.workers:
            if not hasattr(worker, "trace"):
                continue
            shards.append(
                {
                    "shard_id": getattr(worker, "shard_id", len(shards)),
                    "spans": worker.trace(trace_id=trace_id),
                }
            )
        return {
            "trace_id": trace_id,
            "frontend": self.telemetry.trace(trace_id=trace_id),
            "shards": shards,
        }

    # ------------------------------------------------------------- lifecycle
    @property
    def requires_group(self) -> bool:
        return any(bool(getattr(worker, "requires_group", False)) for worker in self.workers)

    def close(self) -> None:
        """Refuse further requests and close every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
