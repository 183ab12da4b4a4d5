"""Shard workers: the per-node half of the sharded serving fleet.

A *shard worker* owns one :class:`~repro.serving.PredictionService` (whose
:class:`~repro.serving.FairnessMonitor` scores its requests) and exposes the
narrow surface the :class:`~repro.fleet.FleetService` front-end dispatches
through:

* :class:`InlineShardWorker` — the service lives in this process.  Zero
  serialization overhead, deterministic, and what the sharded-replay
  bit-identity proof runs on;
* :class:`ProcessShardWorker` — the service lives in a spawned worker
  process that loads the artifact itself with
  ``load_artifact(..., mmap_mode="r")``, so N workers share one
  memory-mapped copy of the weights through the OS page cache and each
  worker's cold start is O(manifest), not O(weights).

Both speak the same protocol: ``predict`` (with the fleet's stream-wide
sequence stamp) returns ``(predictions, chunk)`` — the request's
:class:`~repro.serving.monitor.MonitorChunk`, scored by the shard and left
for the front-end to commit, so no shard keeps a window of its own;
``snapshot`` (shard stats, telemetry and events); ``monitor_template`` (an
empty monitor carrying the shard's configuration and baselines, from which
the front-end builds the fleet window); and ``close``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.exceptions import FleetError
from repro.serving.artifacts import load_artifact, mmap_cache_stats
from repro.serving.monitor import FairnessMonitor
from repro.serving.service import PredictionService, ServiceStats
from repro.telemetry import (
    events_enabled,
    get_event_log,
    get_registry,
    telemetry_enabled,
)


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's aggregation payload: stats, telemetry and events.

    ``mmap_cache`` is the outcome of the shard's ``load_artifact``
    (``"hit"`` — a fresh extraction cache was memory-mapped directly,
    ``"miss"`` — the payload had to be extracted first, ``None`` — the
    shard did not load via mmap).  ``telemetry_state`` is the shard
    registry's mergeable ``state_dict`` (``None`` while telemetry is
    disabled, or when the shard records into the process-wide registry —
    merging that per shard would double-count).  ``events_state`` is the
    shard event log's mergeable ``state_dict`` under the same discipline:
    ``None`` unless the shard records into a private (or per-process) log.
    """

    shard_id: int
    stats: ServiceStats
    cold_start_seconds: float
    mmap_cache: Optional[str] = None
    telemetry_state: Optional[Dict[str, Any]] = None
    events_state: Optional[Dict[str, Any]] = None


class InlineShardWorker:
    """A shard whose :class:`PredictionService` runs in the caller's process.

    Parameters
    ----------
    service:
        The service this shard serves (typically with a baseline-installed
        monitor attached, which scores the shard's requests).  The worker
        owns it: ``close`` closes it.
    shard_id:
        Position of this shard in the fleet (used in reports).
    """

    def __init__(self, service: PredictionService, *, shard_id: int = 0) -> None:
        self.service = service
        self.shard_id = int(shard_id)

    @property
    def requires_group(self) -> bool:
        return self.service.requires_group

    def predict(self, X, group=None, *, y_true=None, sequence=None, trace_id=None):
        """``(predictions, chunk)``; see
        :meth:`~repro.serving.PredictionService.predict_and_score`."""
        return self.service.predict_and_score(
            X, group, y_true=y_true, sequence=sequence, trace_id=trace_id
        )

    def monitor_template(self) -> Optional[FairnessMonitor]:
        monitor = self.service.monitor
        return monitor.config_clone() if monitor is not None else None

    def trace(self, *, trace_id: Optional[str] = None):
        """This shard's finished spans (optionally one trace id's worth)."""
        return self.service.telemetry.trace(trace_id=trace_id)

    def snapshot(self) -> ShardSnapshot:
        stats = self.service.stats
        registry = self.service.telemetry
        events = self.service.events
        # Only a private registry is exported per shard: N inline shards
        # sharing the process-wide registry would each report the same
        # union state and the fleet merge would count it N times.  Same
        # rule for the event log.
        telemetry_state = (
            registry.state_dict()
            if registry.enabled and registry is not get_registry()
            else None
        )
        events_state = (
            events.state_dict() if events.enabled and events is not get_event_log() else None
        )
        return ShardSnapshot(
            shard_id=self.shard_id,
            stats=ServiceStats(stats.n_requests, stats.n_records, stats.total_seconds),
            # The service was handed in, not loaded: no cold start, no mmap.
            cold_start_seconds=0.0,
            telemetry_state=telemetry_state,
            events_state=events_state,
        )

    def close(self) -> None:
        self.service.close()


def _shard_worker_main(
    conn,
    artifact_path,
    monitor_path,
    batch_size,
    mmap_mode,
    telemetry_on=False,
    shard_id=0,
    events_on=False,
) -> None:
    """Worker-process entry point: load, serve the pipe, snapshot on demand."""
    try:
        # The spawned process's default registry and event log are private
        # to this shard by construction, so the in-worker service records
        # straight into them and `snapshot` ships their mergeable states
        # back over the pipe.
        registry = get_registry()
        if telemetry_on:
            registry.enable()
        events = get_event_log()
        if events_on:
            events.enable()
        start = time.perf_counter()
        extractions_before = mmap_cache_stats()["extractions"] if mmap_mode is not None else None
        loaded = load_artifact(artifact_path, mmap_mode=mmap_mode)
        mmap_cache = None
        if extractions_before is not None:
            extracted = mmap_cache_stats()["extractions"] > extractions_before
            mmap_cache = "miss" if extracted else "hit"
        monitor = load_artifact(monitor_path) if monitor_path is not None else None
        service = PredictionService(
            loaded, batch_size=batch_size, monitor=monitor, shard_id=int(shard_id)
        )
        cold_start = time.perf_counter() - start
    except BaseException as error:  # noqa: BLE001 - report, then die
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    conn.send(
        (
            "ready",
            {
                "cold_start_seconds": cold_start,
                "requires_group": service.requires_group,
                "mmap_cache": mmap_cache,
            },
        )
    )
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        kind = message[0]
        try:
            if kind == "predict":
                _, X, group, y_true, sequence, trace_id = message
                conn.send(
                    (
                        "ok",
                        service.predict_and_score(
                            X, group, y_true=y_true, sequence=sequence, trace_id=trace_id
                        ),
                    )
                )
            elif kind == "snapshot":
                stats = service.stats
                conn.send(
                    (
                        "ok",
                        {
                            "stats": (stats.n_requests, stats.n_records, stats.total_seconds),
                            "cold_start_seconds": cold_start,
                            "mmap_cache": mmap_cache,
                            "telemetry_state": (
                                registry.state_dict() if registry.enabled else None
                            ),
                            "events_state": events.state_dict() if events.enabled else None,
                        },
                    )
                )
            elif kind == "trace":
                _, trace_id = message
                conn.send(("ok", registry.trace(trace_id=trace_id)))
            elif kind == "close":
                conn.send(("ok", None))
                break
            else:
                conn.send(("error", f"unknown message kind {kind!r}"))
        except BaseException as error:  # noqa: BLE001 - keep the worker alive
            conn.send(("error", f"{type(error).__name__}: {error}"))
    service.close()
    conn.close()


class ProcessShardWorker:
    """A shard running in its own spawned process.

    The child loads the artifact itself — with ``mmap_mode="r"`` (the
    default) the payload arrays are memory-mapped from the shared extraction
    cache, so every worker after the first starts in O(manifest) time and
    the weights occupy one physical copy machine-wide.

    Parameters
    ----------
    artifact_path:
        Artifact directory (saved by ``save_artifact``) every worker serves.
    monitor_path:
        Optional artifact directory holding a baseline-installed
        :class:`FairnessMonitor`; each worker loads its own copy to score
        with, and the parent loads one more as the template of the fleet
        window.
    batch_size:
        Micro-batch size of the in-worker service.
    mmap_mode:
        ``"r"`` (default) or ``None`` to materialize the payload per worker.
    telemetry:
        Whether the worker process records telemetry (its process-default
        registry is enabled and its mergeable state rides every snapshot).
        ``None`` (default) inherits the parent's current enabled flag at
        construction time.
    events:
        Whether the worker process records flight-recorder events (its
        process-default :class:`~repro.telemetry.EventLog` is enabled and
        its mergeable state rides every snapshot).  ``None`` (default)
        inherits the parent's current enabled flag at construction time.
        The *parent* additionally emits ``worker_lifecycle`` events into its
        own log when its log is enabled (``phase="start"`` at handshake,
        ``phase="close"`` stamped with the highest served sequence).
    """

    def __init__(
        self,
        artifact_path,
        *,
        shard_id: int = 0,
        monitor_path=None,
        batch_size: int = 2048,
        mmap_mode: Optional[str] = "r",
        telemetry: Optional[bool] = None,
        events: Optional[bool] = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self._monitor_path = str(monitor_path) if monitor_path is not None else None
        self._template: Optional[FairnessMonitor] = None
        # One in-flight message per worker: the pipe is a strict
        # request/response channel, serialized under this lock.
        self._lock = threading.Lock()
        self._closed = False
        # Crash forensics, mutated under self._lock: the sequence currently
        # awaiting its reply, and the lo..hi range of sequences this worker
        # has successfully served.
        self._inflight_sequence: Optional[int] = None
        self._served_lo: Optional[int] = None
        self._served_hi: Optional[int] = None
        telemetry_on = telemetry_enabled() if telemetry is None else bool(telemetry)
        events_on = events_enabled() if events is None else bool(events)
        context = multiprocessing.get_context("spawn")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                str(artifact_path),
                self._monitor_path,
                int(batch_size),
                mmap_mode,
                telemetry_on,
                self.shard_id,
                events_on,
            ),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        kind, payload = self._receive()
        if kind != "ready":
            self._abandon()
            raise FleetError(f"Shard worker {self.shard_id} failed to start: {payload}")
        self.cold_start_seconds = float(payload["cold_start_seconds"])
        self.requires_group = bool(payload["requires_group"])
        self.mmap_cache = payload.get("mmap_cache")
        self._emit_lifecycle("start", sequence=-1)

    # ------------------------------------------------------------- plumbing
    def _emit_lifecycle(self, phase: str, *, sequence: int) -> None:
        """Record a worker lifecycle edge in the *parent's* event log.

        Parent-side only (never the worker's private log), so inline-vs-
        process replay comparisons stay lifecycle-free on the shard side;
        ``start`` events use the sentinel sequence ``-1`` (nothing served
        yet), ``close`` events the highest sequence the worker served.
        """
        log = get_event_log()
        if log.enabled:
            log.emit(
                "worker_lifecycle",
                sequence=int(sequence),
                shard_id=self.shard_id,
                phase=phase,
            )

    def _death_details(self) -> str:
        """Crash forensics for a dead/unresponsive worker's FleetError.

        Reaps the process (bounded join) for its exit code and reports the
        request sequence that was in flight plus the range this worker had
        already served — enough to diagnose a crashed shard from the
        exception alone.
        """
        self._process.join(timeout=1.0)
        exit_code = self._process.exitcode
        exit_part = (
            "process still alive" if exit_code is None else f"process exit code {exit_code}"
        )
        if self._inflight_sequence is not None:
            inflight_part = f"in-flight sequence {self._inflight_sequence}"
        else:
            inflight_part = "no sequenced request in flight"
        if self._served_lo is not None:
            served_part = f"served sequence range {self._served_lo}..{self._served_hi}"
        else:
            served_part = "no sequenced requests served"
        return f"shard {self.shard_id}; {exit_part}; {inflight_part}; {served_part}"

    def _receive(self, *, timeout: float = 120.0):
        if not self._conn.poll(timeout):
            details = self._death_details()
            self._abandon()
            raise FleetError(
                f"Shard worker {self.shard_id} did not answer within {timeout:.0f}s "
                f"(worker process hung or died; {details})"
            )
        try:
            return self._conn.recv()
        except EOFError:
            details = self._death_details()
            self._abandon()
            raise FleetError(
                f"Shard worker {self.shard_id} died mid-conversation "
                f"(EOF on its pipe; {details})"
            ) from None

    def _request(self, message, *, timeout: float = 120.0, sequence: Optional[int] = None):
        with self._lock:
            if self._closed:
                raise FleetError(f"Shard worker {self.shard_id} is closed")
            if sequence is not None:
                self._inflight_sequence = int(sequence)
            try:
                self._conn.send(message)
            except (OSError, ValueError) as error:
                details = self._death_details()
                self._abandon()
                raise FleetError(
                    f"Cannot reach shard worker {self.shard_id}: {error} ({details})"
                ) from error
            kind, payload = self._receive(timeout=timeout)
            if sequence is not None and kind == "ok":
                seq = int(sequence)
                self._served_lo = seq if self._served_lo is None else min(self._served_lo, seq)
                self._served_hi = seq if self._served_hi is None else max(self._served_hi, seq)
            self._inflight_sequence = None
        if kind == "error":
            raise FleetError(f"Shard worker {self.shard_id} failed: {payload}")
        return payload

    def _abandon(self) -> None:
        self._closed = True
        if self._process.is_alive():
            self._process.terminate()

    # ------------------------------------------------------------- protocol
    def predict(self, X, group=None, *, y_true=None, sequence=None, trace_id=None):
        """``(predictions, chunk)``, served and scored in the worker process."""
        return self._request(
            ("predict", np.asarray(X), group, y_true, sequence, trace_id),
            sequence=sequence,
        )

    def trace(self, *, trace_id: Optional[str] = None):
        """The worker process's finished spans, fetched over the pipe."""
        return self._request(("trace", trace_id))

    def monitor_template(self) -> Optional[FairnessMonitor]:
        if self._monitor_path is None:
            return None
        if self._template is None:
            template = load_artifact(self._monitor_path)
            if not isinstance(template, FairnessMonitor):
                raise FleetError(
                    f"monitor_path {self._monitor_path} holds "
                    f"{type(template).__name__}, not a FairnessMonitor"
                )
            self._template = template
        return self._template.config_clone()

    def snapshot(self) -> ShardSnapshot:
        payload = self._request(("snapshot",))
        n_requests, n_records, total_seconds = payload["stats"]
        return ShardSnapshot(
            shard_id=self.shard_id,
            stats=ServiceStats(int(n_requests), int(n_records), float(total_seconds)),
            cold_start_seconds=float(payload["cold_start_seconds"]),
            mmap_cache=payload.get("mmap_cache"),
            telemetry_state=payload.get("telemetry_state"),
            events_state=payload.get("events_state"),
        )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            served_hi = self._served_hi
            try:
                self._conn.send(("close",))
                self._conn.poll(5.0) and self._conn.recv()
            except (OSError, ValueError, EOFError):
                pass
        self._process.join(timeout=10.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()
        self._emit_lifecycle("close", sequence=-1 if served_hi is None else served_hi)
