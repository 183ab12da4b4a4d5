"""Structured event log: the flight recorder half of the telemetry layer.

Metrics answer *how much*; the event log answers *what happened, in what
order*.  An :class:`EventLog` records typed, sequence-stamped events —
served requests, alarm edges, channel-attribution snapshots, mitigation
transitions, worker lifecycle — and makes the same exact-merge promise the
rest of the stack does: shard-local logs fold into one fleet-level log
**bit-identically to the log one process would have recorded observing the
union stream**, keyed by the monitor's stream-wide sequence stamps.  The
merge is associative and order-invariant, mirroring
:meth:`repro.serving.FairnessMonitor.merge` and
:meth:`repro.telemetry.MetricsRegistry.merge_state_dicts`.

Design rules that make the contract hold:

* records carry **no wall-clock timestamps** and **no trace ids** — both
  differ between a sharded run and a single-service run.  Ordering is the
  canonical ``(sequence, kind, index)`` triple, where ``index`` counts
  events of the same kind at the same sequence within one log.  Spans carry
  trace ids *and* sequences, so the sequence stamp is the join key between
  the event log and the trace view.
* the log is bounded: past ``max_events`` the lowest-sequence records are
  evicted and the eviction horizon (``evicted_through``) rides the state so
  merges of partially-evicted logs stay well-defined (every record at or
  below the merged horizon is dropped, exactly like the monitor's window).
* duplicate ``(sequence, kind, index)`` keys across merge inputs raise
  :class:`~repro.exceptions.TelemetryError` — shard logs partition the
  stream, they never overlap.

Like the metrics registry, an ``EventLog`` is off by default and
``emit`` costs one attribute read while off.  A log persists through
:meth:`EventLog.state_dict`: ``--events-out`` writes it into a JSON dump
(:func:`repro.telemetry.write_events`) and ``repro-telemetry tail`` reads it
back.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import TelemetryError

EVENT_LOG_SCHEMA_VERSION = 1

#: The typed vocabulary.  ``request`` — one served (micro-)batch, stamped
#: with the monitor-assigned sequence; ``alarm_edge`` — a monitor channel
#: set crossed from clear to alarming (or changed composition);
#: ``channel_snapshot`` — a full :meth:`FairnessMonitor.alarm_report`
#: attribution payload; ``mitigation_transition`` — one
#: :class:`MitigationTransition`; ``worker_lifecycle`` — a shard worker
#: process starting or closing.
EVENT_KINDS = (
    "request",
    "alarm_edge",
    "channel_snapshot",
    "mitigation_transition",
    "worker_lifecycle",
)

_KEY = Tuple[int, str, int]


def _record_key(record: Dict[str, Any]) -> _KEY:
    return (int(record["sequence"]), str(record["kind"]), int(record["index"]))


class EventLog:
    """A bounded, sequence-stamped structured event log with exact merging.

    Parameters
    ----------
    enabled:
        Whether ``emit`` records anything.  Off by default, mirroring
        :class:`MetricsRegistry`.
    max_events:
        Retention bound.  When exceeded, the lowest-``(sequence, kind,
        index)`` records are evicted and ``evicted_through`` advances to the
        highest evicted sequence.
    """

    def __init__(self, *, enabled: bool = False, max_events: int = 65536) -> None:
        if int(max_events) < 1:
            raise TelemetryError("max_events must be at least 1")
        self.enabled = bool(enabled)
        self.max_events = int(max_events)
        self._lock = threading.Lock()
        # Kept in canonical (sequence, kind, index) order, so eviction pops
        # from the left.
        self._records: deque = deque()
        self._indices: Dict[Tuple[int, str], int] = {}
        self._evicted_through: Optional[int] = None
        self._n_emitted = 0

    # ------------------------------------------------------------- control
    def enable(self) -> "EventLog":
        self.enabled = True
        return self

    def disable(self) -> "EventLog":
        self.enabled = False
        return self

    def reset(self) -> "EventLog":
        """Drop every record and forget the eviction horizon."""
        with self._lock:
            self._records.clear()
            self._indices.clear()
            self._evicted_through = None
            self._n_emitted = 0
        return self

    # ------------------------------------------------------------ recording
    def emit(self, kind: str, *, sequence: int, **attributes: Any) -> Optional[Dict[str, Any]]:
        """Record one event; returns the stored record (``None`` while off).

        ``sequence`` is the stream-wide stamp the event is keyed by
        (``-1`` for events that precede any sequenced traffic, e.g. a
        worker starting).  ``attributes`` must be JSON-serializable — they
        travel through JSON dumps and worker pipes verbatim.
        """
        if not self.enabled:
            return None
        if kind not in EVENT_KINDS:
            raise TelemetryError(
                f"unknown event kind {kind!r} (expected one of {', '.join(EVENT_KINDS)})"
            )
        sequence = int(sequence)
        with self._lock:
            slot = (sequence, kind)
            index = self._indices.get(slot, 0)
            self._indices[slot] = index + 1
            record = {
                "sequence": sequence,
                "index": index,
                "kind": kind,
                "attributes": dict(attributes),
            }
            # One writer emits in nearly canonical order, so the insertion
            # point is found walking back from the right end.
            key = (sequence, kind, index)
            position = len(self._records)
            while position and _record_key(self._records[position - 1]) > key:
                position -= 1
            self._records.insert(position, record)
            self._n_emitted += 1
            self._evict_locked()
        return record

    def _evict_locked(self) -> None:
        while len(self._records) > self.max_events:
            horizon = int(self._records.popleft()["sequence"])
            if self._evicted_through is None or horizon > self._evicted_through:
                self._evicted_through = horizon

    # ------------------------------------------------------------- reading
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def evicted_through(self) -> Optional[int]:
        """Highest evicted sequence (``None`` while nothing was evicted)."""
        return self._evicted_through

    @property
    def n_emitted(self) -> int:
        """Events ever emitted into this log, including evicted ones."""
        return self._n_emitted

    def records(
        self, *, kind: Optional[str] = None, since: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Records in canonical ``(sequence, kind, index)`` order (copies)."""
        with self._lock:
            snapshot = [dict(record) for record in self._records]
        if kind is not None:
            snapshot = [record for record in snapshot if record["kind"] == kind]
        if since is not None:
            snapshot = [record for record in snapshot if record["sequence"] >= int(since)]
        return snapshot

    def tail(self, n: int = 20, *, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """The last ``n`` records in canonical order (none when ``n <= 0``)."""
        n = int(n)
        return self.records(kind=kind)[-n:] if n > 0 else []

    # ------------------------------------------------------- checkpointing
    def state_dict(self) -> Dict[str, Any]:
        """Mergeable snapshot: canonical records plus retention bookkeeping."""
        return {
            "schema_version": EVENT_LOG_SCHEMA_VERSION,
            "max_events": self.max_events,
            "evicted_through": self._evicted_through,
            "n_emitted": self._n_emitted,
            "records": self.records(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> "EventLog":
        """Restore a snapshot (replacing current contents); returns self."""
        state = _validate_state(state)
        with self._lock:
            self.max_events = int(state["max_events"])
            self._records = deque(
                sorted((dict(record) for record in state["records"]), key=_record_key)
            )
            self._indices = {}
            for record in self._records:
                slot = (record["sequence"], record["kind"])
                self._indices[slot] = max(
                    self._indices.get(slot, 0), int(record["index"]) + 1
                )
            self._evicted_through = state["evicted_through"]
            self._n_emitted = int(state["n_emitted"])
            self._evict_locked()
        return self

    @classmethod
    def merge_state_dicts(cls, states: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        """Fold shard-local states into the union-stream state, exactly.

        Associative and order-invariant: records are the disjoint union
        (duplicate ``(sequence, kind, index)`` keys raise
        :class:`TelemetryError`), the eviction horizon is the max of the
        inputs' horizons (records at or below it are dropped), capacity is
        the sum of the inputs' capacities, and the result is canonically
        ``(sequence, kind, index)``-sorted — so merging shard logs in any
        grouping yields the same bytes.
        """
        validated = [_validate_state(state) for state in states]
        if not validated:
            return {
                "schema_version": EVENT_LOG_SCHEMA_VERSION,
                "max_events": 1,
                "evicted_through": None,
                "n_emitted": 0,
                "records": [],
            }
        horizons = [
            state["evicted_through"]
            for state in validated
            if state["evicted_through"] is not None
        ]
        horizon = max(horizons) if horizons else None
        seen: Dict[_KEY, Dict[str, Any]] = {}
        for state in validated:
            for record in state["records"]:
                key = _record_key(record)
                if key in seen:
                    raise TelemetryError(
                        f"duplicate event {key} across merge inputs — shard "
                        "logs must partition the stream, not overlap"
                    )
                seen[key] = dict(record)
        records = [
            record
            for key, record in sorted(seen.items())
            if horizon is None or record["sequence"] > horizon
        ]
        max_events = sum(int(state["max_events"]) for state in validated)
        n_emitted = sum(int(state["n_emitted"]) for state in validated)
        merged = {
            "schema_version": EVENT_LOG_SCHEMA_VERSION,
            "max_events": max_events,
            "evicted_through": horizon,
            "n_emitted": n_emitted,
            "records": records,
        }
        if len(records) > max_events:
            # The union can only exceed the summed capacities when inputs
            # were built with tiny bounds; fold through a log so eviction
            # applies the same lowest-sequence-first rule.
            merged = cls(max_events=max_events).load_state_dict(merged).state_dict()
        return merged

    @classmethod
    def merge(cls, *logs: "EventLog") -> "EventLog":
        """Merge live logs into a new (enabled) union log."""
        state = cls.merge_state_dicts([log.state_dict() for log in logs])
        merged = cls(enabled=True, max_events=int(state["max_events"]))
        return merged.load_state_dict(state)


def _validate_state(state: Any) -> Dict[str, Any]:
    if not isinstance(state, dict):
        raise TelemetryError("event-log state must be a dict")
    version = state.get("schema_version")
    if version != EVENT_LOG_SCHEMA_VERSION:
        raise TelemetryError(
            f"event-log state has schema_version {version!r}, "
            f"this build reads {EVENT_LOG_SCHEMA_VERSION}"
        )
    records = state.get("records")
    if not isinstance(records, (list, tuple)):
        raise TelemetryError("event-log state 'records' must be a list")
    horizon = state.get("evicted_through")
    if horizon is not None and not isinstance(horizon, int):
        raise TelemetryError("event-log state 'evicted_through' must be an int or None")
    cleaned: List[Dict[str, Any]] = []
    for record in records:
        if not isinstance(record, dict):
            raise TelemetryError("event-log records must be dicts")
        try:
            sequence = int(record["sequence"])
            index = int(record["index"])
            kind = str(record["kind"])
        except (KeyError, TypeError, ValueError) as error:
            raise TelemetryError(f"malformed event record {record!r}") from error
        if kind not in EVENT_KINDS:
            raise TelemetryError(f"event record has unknown kind {kind!r}")
        attributes = record.get("attributes", {})
        if not isinstance(attributes, dict):
            raise TelemetryError("event record 'attributes' must be a dict")
        cleaned.append(
            {
                "sequence": sequence,
                "index": index,
                "kind": kind,
                "attributes": dict(attributes),
            }
        )
    try:
        max_events = int(state.get("max_events", max(len(cleaned), 1)))
    except (TypeError, ValueError) as error:
        raise TelemetryError("event-log state 'max_events' must be an int") from error
    try:
        n_emitted = int(state.get("n_emitted", len(cleaned)))
    except (TypeError, ValueError) as error:
        raise TelemetryError("event-log state 'n_emitted' must be an int") from error
    return {
        "schema_version": EVENT_LOG_SCHEMA_VERSION,
        "max_events": max_events,
        "evicted_through": horizon,
        "n_emitted": n_emitted,
        "records": cleaned,
    }
