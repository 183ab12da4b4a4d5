"""repro.telemetry — unified metrics, latency histograms, and tracing spans.

Every layer of the stack — fit (:func:`repro.core.profile_partitions`,
:class:`repro.interventions.FairnessPipeline`), serve
(:class:`repro.serving.PredictionService`), shard
(:class:`repro.fleet.FleetService`), and replay
(:class:`repro.simulate.ReplayHarness`) — records into one substrate:

- **Counters** (``serving.requests_total``, ``serving.records_total``) and
  **gauges** (``density.backend_cache.hits``, folded in from
  ``backend_cache_stats()`` by a collector at export time).
- **Histograms** (``serving.request_latency_seconds``,
  ``serving.batch_rows``) with fixed buckets and **exact merges**:
  observations are quantized to integers at record time, so per-shard
  histograms fold into one fleet view bit-identically to a histogram that
  observed the union stream — the same contract
  :meth:`repro.serving.FairnessMonitor.merge` makes for fairness state.
- **Spans** (``with span("fit.profile_partitions"): ...``) with
  parent/child nesting, wall-time, and structured attributes, buffered per
  registry and summarized into ``span.<name>.seconds`` histograms.

Telemetry is **off by default** and near-zero-overhead while off: every
instrumented hot path guards its recording with a single
``registry.enabled`` attribute read (gated by
``benchmarks/test_telemetry_overhead.py`` in the CI regression gate).
Enable it for the process with :func:`enable`, or pass a private
:class:`MetricsRegistry` to the component you care about::

    from repro import telemetry

    telemetry.enable()
    service.predict(rows)                  # records latency/batch metrics
    print(telemetry.export_prometheus())   # Prometheus text exposition
    payload = telemetry.export()           # JSON-able dict (incl. spans)

The ``repro-serve serve``, ``repro-fleet serve|replay``, and
``repro-simulate run|suite|calibrate`` commands take ``--metrics-out PATH``
to enable telemetry and write a JSON dump (summary + mergeable state); the
``repro-telemetry`` CLI summarizes and diffs those dumps.

The flight recorder
-------------------
Metrics aggregate; the **event log** (:mod:`repro.telemetry.events`)
remembers.  :class:`EventLog` records typed, sequence-stamped events —
served requests, alarm edges, :meth:`FairnessMonitor.alarm_report`
channel snapshots, mitigation transitions, worker lifecycle — and merges
shard-local logs bit-identically to the union-stream log, keyed by the
same sequence stamps the monitors merge on.  Traces stitch onto it:
:class:`~repro.fleet.FleetService` assigns a deterministic trace id per
dispatched micro-batch, worker-side request spans carry
``trace_id``/``shard_id``/``sequence``, and latency histograms attach
per-bucket **exemplars** (sample trace ids), so a tail-latency bucket or
an alarm edge resolves to concrete requests::

    from repro import telemetry

    telemetry.enable()
    telemetry.get_event_log().enable()
    ...                                        # serve / replay traffic
    log = telemetry.get_event_log()
    print(log.tail(5))                         # last events, canonical order
    print([r for r in log.records(kind="alarm_edge")])

Every replay/serving CLI takes ``--events-out PATH`` to enable the event
log and dump it as JSON, and ``repro-telemetry tail|trace`` inspect those
dumps (``trace`` joins spans to events by sequence stamp).

Thread safety: one registry lock guards all metric state (the PR 6
discipline); spans keep per-thread stacks, so concurrent callers trace
independently.  Determinism: counters and histogram merges are exact
integer arithmetic; wall-clock values never feed replay verdicts
(``compare_sharded_replay`` stays bit-identical with telemetry enabled),
and event records carry neither timestamps nor trace ids, so sharded
event logs merge bit-identically too.
"""

from __future__ import annotations

import json as _json
from pathlib import Path as _Path
from typing import Any, Dict, Optional

from repro.telemetry.events import EVENT_KINDS, EVENT_LOG_SCHEMA_VERSION, EventLog
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import SpanHandle

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "EVENT_KINDS",
    "EVENT_LOG_SCHEMA_VERSION",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanHandle",
    "disable",
    "dump",
    "enable",
    "events_enabled",
    "export",
    "export_prometheus",
    "get_event_log",
    "get_registry",
    "reset",
    "span",
    "telemetry_enabled",
    "write_events",
    "write_metrics",
]

#: The process-wide default registry.  Instrumented components use it unless
#: handed a private registry (fleet shards get their own to keep merges
#: double-count-free).
_DEFAULT_REGISTRY = MetricsRegistry()

#: The process-wide default event log, following the same private-vs-default
#: discipline as the registry: inline fleet shards get private logs so the
#: fleet merge never double-counts an event.
_DEFAULT_EVENT_LOG = EventLog()


def get_event_log() -> EventLog:
    """The process-wide default :class:`EventLog`."""

    return _DEFAULT_EVENT_LOG


def events_enabled() -> bool:
    """Whether the default event log is currently recording."""

    return _DEFAULT_EVENT_LOG.enabled


def write_events(path, payload: Optional[Dict[str, Any]] = None) -> str:
    """Write an event-log dump to ``path`` as deterministic JSON.

    ``payload`` defaults to ``{"events_version": 1, "state": ...}`` for the
    default log; the fleet CLI passes
    :meth:`~repro.fleet.FleetService.events_report` instead.  Returns the
    written path (what ``--events-out`` handlers report).
    """

    if payload is None:
        payload = {
            "events_version": EVENT_LOG_SCHEMA_VERSION,
            "state": _DEFAULT_EVENT_LOG.state_dict(),
        }
    return _write_json(path, payload)


def _write_json(path, payload: Dict[str, Any]) -> str:
    """Write ``payload`` to ``path`` as deterministic JSON; returns the path."""
    target = _Path(path)
    target.write_text(
        _json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return str(target)


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""

    return _DEFAULT_REGISTRY


def enable() -> MetricsRegistry:
    """Enable the default registry; returns it for chaining."""

    return _DEFAULT_REGISTRY.enable()


def disable() -> MetricsRegistry:
    """Disable the default registry; returns it for chaining."""

    return _DEFAULT_REGISTRY.disable()


def telemetry_enabled() -> bool:
    """Whether the default registry is currently recording."""

    return _DEFAULT_REGISTRY.enabled


def span(name: str, **attributes: Any):
    """Open a span on the default registry (no-op while disabled)."""

    return _DEFAULT_REGISTRY.span(name, **attributes)


def export(*, include_spans: bool = True) -> Dict[str, Any]:
    """JSON-able summary of the default registry."""

    return _DEFAULT_REGISTRY.export(include_spans=include_spans)


def export_prometheus() -> str:
    """Prometheus text exposition of the default registry."""

    return _DEFAULT_REGISTRY.export_prometheus()


def dump() -> Dict[str, Any]:
    """The ``--metrics-out`` payload for the default registry."""

    return _DEFAULT_REGISTRY.dump()


def write_metrics(path, payload: Optional[Dict[str, Any]] = None) -> str:
    """Write a telemetry dump to ``path`` as deterministic JSON.

    ``payload`` defaults to the default registry's :func:`dump`; the fleet
    CLI passes :meth:`~repro.fleet.FleetService.telemetry_report` instead.
    Returns the written path (what ``--metrics-out`` handlers report).
    """

    return _write_json(path, dump() if payload is None else payload)


def reset(*, clear_collectors: bool = False) -> None:
    """Clear the default registry's metrics and spans (collectors stay
    unless ``clear_collectors=True``)."""

    _DEFAULT_REGISTRY.reset(clear_collectors=clear_collectors)
