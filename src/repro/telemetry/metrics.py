"""Metric primitives and the :class:`MetricsRegistry`.

Three metric kinds, all named, all owned by a registry:

- :class:`Counter` — a monotonically increasing integer (requests served,
  rows scored).
- :class:`Gauge` — a point-in-time float, usually published by a collector
  callback at export time (cache sizes, hit counts).
- :class:`Histogram` — a fixed-bucket distribution whose merge is **exact**.

Exact histogram merging is the load-bearing design decision.  Like
``FairnessMonitor``, fleet shards each record their own histogram and the
front-end folds them into one view; for that view to be trustworthy the fold
must be bit-identical to a histogram that observed the union stream,
independent of shard split and merge order.  Floating-point accumulation
cannot promise that, so a histogram quantizes every observation to an integer
at ``resolution`` granularity (nanoseconds for second-valued latencies) and
keeps only integer sufficient statistics — per-bucket counts, the scaled sum,
scaled min/max.  Merging is then integer addition: associative, commutative,
exact.  :meth:`MetricsRegistry.merge_state_dicts` mirrors
``FairnessMonitor.merge_state_dicts`` on top of that.

Thread safety follows the PR 6 discipline: one registry lock guards all
metric maps and metric state; no user code runs under the lock (collectors
run outside it against individual metric operations that re-acquire it).
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import TelemetryError
from repro.telemetry.spans import NOOP_SPAN, SpanHandle, _SpanContext

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Default bucket upper bounds for second-valued histograms (latencies).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default bucket upper bounds for count-valued histograms (batch sizes).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0, 100000.0,
)

#: Quantiles reported by ``export()``.
_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99),
)

#: Capacity of a registry's finished-span buffer; the oldest records beyond
#: it are dropped and counted into the ``span.dropped`` counter.
MAX_SPANS = 4096

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prometheus_name(name: str) -> str:
    return _PROM_NAME_RE.sub("_", name)


class Counter:
    """A monotone integer counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        amount = int(amount)
        if amount < 0:
            raise TelemetryError(f"Counter {self.name!r} cannot decrease (inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time float value."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket histogram with exact, order-invariant merges.

    Observations are quantized to ``round(value / resolution)`` and every
    retained statistic is an integer in that scale, so two histograms with
    the same bucket layout merge by integer addition — bit-identical to a
    single histogram that observed the concatenated stream, in any order.
    Bucket bounds are upper-inclusive (Prometheus ``le`` semantics) with an
    implicit ``+Inf`` overflow bucket.
    """

    __slots__ = (
        "name", "_lock", "_uppers", "_scaled_uppers", "_resolution",
        "_counts", "_sum_scaled", "_min_scaled", "_max_scaled", "_exemplars",
    )

    def __init__(
        self,
        name: str,
        lock: threading.RLock,
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        resolution: float = 1e-9,
    ) -> None:
        uppers = tuple(float(u) for u in buckets)
        if not uppers:
            raise TelemetryError(f"Histogram {name!r} needs at least one bucket")
        if any(b >= a for b, a in zip(uppers, uppers[1:])):
            raise TelemetryError(f"Histogram {name!r} buckets must be strictly increasing")
        resolution = float(resolution)
        if not resolution > 0.0:
            raise TelemetryError(f"Histogram {name!r} resolution must be positive")
        self.name = name
        self._lock = lock
        self._uppers = uppers
        self._resolution = resolution
        self._scaled_uppers = tuple(int(round(u / resolution)) for u in uppers)
        self._counts = [0] * (len(uppers) + 1)  # +1: the +Inf overflow bucket
        self._sum_scaled = 0
        self._min_scaled: Optional[int] = None
        self._max_scaled: Optional[int] = None
        # Per-bucket exemplars (last trace id + value per bucket).  They are
        # diagnostics riding exports only — never part of state_dict(), so
        # the exact-merge contract is untouched.
        self._exemplars: Dict[int, Dict[str, Any]] = {}

    # -- recording ---------------------------------------------------------

    def observe(self, value: float, *, exemplar: Optional[str] = None) -> None:
        scaled = int(round(float(value) / self._resolution))
        index = bisect_left(self._scaled_uppers, scaled)
        with self._lock:
            self._counts[index] += 1
            self._sum_scaled += scaled
            if self._min_scaled is None or scaled < self._min_scaled:
                self._min_scaled = scaled
            if self._max_scaled is None or scaled > self._max_scaled:
                self._max_scaled = scaled
            if exemplar is not None:
                self._exemplars[index] = {
                    "trace_id": str(exemplar),
                    "value": scaled * self._resolution,
                }

    # -- reading -----------------------------------------------------------

    @property
    def buckets(self) -> Tuple[float, ...]:
        return self._uppers

    @property
    def resolution(self) -> float:
        return self._resolution

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum_scaled * self._resolution

    @property
    def min(self) -> Optional[float]:
        with self._lock:
            return None if self._min_scaled is None else self._min_scaled * self._resolution

    @property
    def max(self) -> Optional[float]:
        with self._lock:
            return None if self._max_scaled is None else self._max_scaled * self._resolution

    @property
    def mean(self) -> Optional[float]:
        with self._lock:
            total = sum(self._counts)
            if total == 0:
                return None
            return self._sum_scaled * self._resolution / total

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the ``q``-th observation, clamped to the observed max)."""

        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile fraction must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            max_scaled = self._max_scaled
        return self._quantile_of(counts, max_scaled, q)

    def _quantile_of(
        self, counts: List[int], max_scaled: Optional[int], q: float
    ) -> Optional[float]:
        """The bucket walk behind :meth:`quantile` and :meth:`summary`, over
        a snapshot of the counts and max taken under the lock."""

        total = sum(counts)
        if total == 0 or max_scaled is None:
            return None
        observed_max = max_scaled * self._resolution
        rank = max(1, math.ceil(q * total))
        cumulative = 0
        for upper, bucket_count in zip(self._uppers, counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return min(upper, observed_max)
        return observed_max

    # -- state -------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "buckets": list(self._uppers),
                "resolution": self._resolution,
                "counts": list(self._counts),
                "sum_scaled": self._sum_scaled,
                "min_scaled": self._min_scaled,
                "max_scaled": self._max_scaled,
            }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._check_layout(state)
        counts = [int(c) for c in state["counts"]]
        with self._lock:
            self._counts = counts
            self._sum_scaled = int(state["sum_scaled"])
            self._min_scaled = None if state["min_scaled"] is None else int(state["min_scaled"])
            self._max_scaled = None if state["max_scaled"] is None else int(state["max_scaled"])

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's state into this one (exact)."""

        self._check_layout(state)
        counts = [int(c) for c in state["counts"]]
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum_scaled += int(state["sum_scaled"])
            for key, pick in (("min_scaled", min), ("max_scaled", max)):
                theirs = state[key]
                if theirs is None:
                    continue
                theirs = int(theirs)
                ours = self._min_scaled if key == "min_scaled" else self._max_scaled
                merged = theirs if ours is None else pick(ours, theirs)
                if key == "min_scaled":
                    self._min_scaled = merged
                else:
                    self._max_scaled = merged

    def _check_layout(self, state: Dict[str, Any]) -> None:
        buckets = tuple(float(u) for u in state.get("buckets", ()))
        resolution = float(state.get("resolution", 0.0))
        if buckets != self._uppers or resolution != self._resolution:
            raise TelemetryError(
                f"Histogram {self.name!r} layout mismatch: have "
                f"{len(self._uppers)} buckets @ resolution {self._resolution}, "
                f"state has {len(buckets)} buckets @ resolution {resolution}"
            )
        if len(state.get("counts", ())) != len(self._uppers) + 1:
            raise TelemetryError(
                f"Histogram {self.name!r} state has {len(state.get('counts', ()))} "
                f"bucket counts, expected {len(self._uppers) + 1}"
            )

    def summary(self) -> Dict[str, Any]:
        """JSON-able summary: count, sum, mean, min/max, quantiles, buckets."""

        with self._lock:
            counts = list(self._counts)
            sum_scaled = self._sum_scaled
            min_scaled = self._min_scaled
            max_scaled = self._max_scaled
            exemplars = {index: dict(e) for index, e in self._exemplars.items()}
        total = sum(counts)
        quantiles = {label: self._quantile_of(counts, max_scaled, q) for label, q in _QUANTILES}
        cumulative = 0
        buckets: List[Dict[str, Any]] = []
        for index, (upper, bucket_count) in enumerate(zip(self._uppers, counts)):
            cumulative += bucket_count
            bucket: Dict[str, Any] = {"le": upper, "count": cumulative}
            if index in exemplars:
                bucket["exemplar"] = exemplars[index]
            buckets.append(bucket)
        overflow: Dict[str, Any] = {"le": "+Inf", "count": total}
        if len(self._uppers) in exemplars:
            overflow["exemplar"] = exemplars[len(self._uppers)]
        buckets.append(overflow)
        return {
            "count": total,
            "sum": sum_scaled * self._resolution,
            "mean": None if total == 0 else sum_scaled * self._resolution / total,
            "min": None if min_scaled is None else min_scaled * self._resolution,
            "max": None if max_scaled is None else max_scaled * self._resolution,
            "quantiles": quantiles,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Process- or shard-scoped home for counters, gauges, histograms, spans.

    A registry starts **disabled**: instrumented code guards every record
    with one ``registry.enabled`` attribute read, so the disabled hot-path
    cost is a single branch.  :func:`repro.telemetry.get_registry` returns
    the process-wide default; fleet shards get private registries so their
    states merge without double counting.

    ``state_dict()`` / ``load_state_dict()`` / ``merge_state_dicts()``
    mirror ``FairnessMonitor``: states are plain JSON-able dicts, and the
    merge of per-shard states is exact (see :class:`Histogram`).  Spans are
    process-local diagnostics and deliberately stay out of mergeable state.
    """

    def __init__(self, *, enabled: bool = False) -> None:
        self._lock = threading.RLock()
        self._enabled = bool(enabled)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._spans: deque = deque(maxlen=MAX_SPANS)
        self._spans_dropped = 0
        self._span_ids = itertools.count(1)
        self._span_local = threading.local()

    # -- enablement --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> "MetricsRegistry":
        self._enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self._enabled = False
        return self

    # -- metric construction ----------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_name_free(name, "counter")
                metric = Counter(name, self._lock)
                self._counters[name] = metric
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_name_free(name, "gauge")
                metric = Gauge(name, self._lock)
                self._gauges[name] = metric
            return metric

    def histogram(
        self,
        name: str,
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        resolution: float = 1e-9,
    ) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_name_free(name, "histogram")
                metric = Histogram(name, self._lock, buckets=buckets, resolution=resolution)
                self._histograms[name] = metric
                return metric
        if metric.buckets != tuple(float(u) for u in buckets) or (
            metric.resolution != float(resolution)
        ):
            raise TelemetryError(
                f"Histogram {name!r} already registered with a different "
                f"bucket layout or resolution"
            )
        return metric

    def _check_name_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise TelemetryError(
                    f"Metric name {name!r} already registered as a {other_kind}, "
                    f"cannot reuse it as a {kind}"
                )

    # -- collectors --------------------------------------------------------

    def add_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run before every export/``state_dict`` to fold
        externally owned stats (cache counters, ...) into gauges."""

        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:  # outside the lock: collectors take their own
            collector(self)

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a tracing span; no-op (shared singleton) when disabled."""

        if not self._enabled:
            return NOOP_SPAN
        return _SpanContext(self, name, attributes)

    def _span_stack(self) -> List[SpanHandle]:
        stack = getattr(self._span_local, "stack", None)
        if stack is None:
            stack = []
            self._span_local.stack = stack
        return stack

    def _start_span(self, name: str, attributes: Dict[str, Any]) -> SpanHandle:
        stack = self._span_stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = next(self._span_ids)
        handle = SpanHandle(name, span_id, parent_id, dict(attributes))
        stack.append(handle)
        return handle

    def _finish_span(self, handle: SpanHandle, duration: float, *, ok: bool) -> None:
        stack = self._span_stack()
        status = "ok" if ok else "error"
        if stack and stack[-1] is handle:
            stack.pop()
        else:
            # Exited out of order (or on a thread that never started it):
            # broken instrumentation must be observable, not invisible.
            if handle in stack:
                stack.remove(handle)
            status = "misnested"
            self.counter("span.misnested").inc()
        record = {
            "name": handle.name,
            "span_id": handle.span_id,
            "parent_id": handle.parent_id,
            "start_time": handle.start_time,
            "duration_seconds": duration,
            "status": status,
            "attributes": dict(handle.attributes),
        }
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._spans_dropped += 1
            self._spans.append(record)
        self.histogram(f"span.{handle.name}.seconds").observe(duration)

    def _publish_span_drops(self) -> None:
        """Fold the running drop count into the ``span.dropped`` counter.

        Called on every export path so the counter rides the mergeable
        state without touching the span hot path with an extra counter
        increment per finished span."""

        with self._lock:
            dropped = self._spans_dropped
        if dropped:
            counter = self.counter("span.dropped")
            delta = dropped - counter.value
            if delta > 0:
                counter.inc(delta)

    def trace(self, *, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Finished spans, oldest first (bounded buffer).

        With ``trace_id`` only spans whose attributes carry that trace id
        are returned — the per-request view the fleet stitches."""

        with self._lock:
            records = [dict(record) for record in self._spans]
        if trace_id is None:
            return records
        return [
            record
            for record in records
            if record["attributes"].get("trace_id") == trace_id
        ]

    # -- state -------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Mergeable snapshot of all metrics (collectors run first)."""

        self._run_collectors()
        self._publish_span_drops()
        with self._lock:
            return {
                "counters": {name: c.value for name, c in sorted(self._counters.items())},
                "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
                "histograms": {
                    name: h.state_dict() for name, h in sorted(self._histograms.items())
                },
            }

    def load_state_dict(self, state: Dict[str, Any]) -> "MetricsRegistry":
        """Replace this registry's metric contents with ``state``."""

        self._validate_state(state)
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}
            for name, value in state.get("counters", {}).items():
                self.counter(name).inc(int(value))
            for name, value in state.get("gauges", {}).items():
                self.gauge(name).set(float(value))
            for name, hist_state in state.get("histograms", {}).items():
                hist = self.histogram(
                    name,
                    buckets=hist_state["buckets"],
                    resolution=hist_state["resolution"],
                )
                hist.load_state(hist_state)
        return self

    @staticmethod
    def _validate_state(state: Any) -> None:
        if not isinstance(state, dict):
            raise TelemetryError(
                f"telemetry state must be a dict, got {type(state).__name__}"
            )
        for key in ("counters", "gauges", "histograms"):
            if key in state and not isinstance(state[key], dict):
                raise TelemetryError(f"telemetry state[{key!r}] must be a dict")

    @classmethod
    def merge_state_dicts(cls, states: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Fold per-shard states into one — exact for counters + histograms.

        Counters and gauges sum; histograms merge via integer sufficient
        statistics, so the result is bit-identical to a registry that
        observed the union stream, independent of shard split and order
        (the same contract as ``FairnessMonitor.merge_state_dicts``).
        """

        merged = cls()
        for state in states:
            cls._validate_state(state)
            for name, value in state.get("counters", {}).items():
                merged.counter(name).inc(int(value))
            for name, value in state.get("gauges", {}).items():
                gauge = merged.gauge(name)
                gauge.set(gauge.value + float(value))
            for name, hist_state in state.get("histograms", {}).items():
                hist = merged.histogram(
                    name,
                    buckets=hist_state["buckets"],
                    resolution=hist_state["resolution"],
                )
                hist.merge_state(hist_state)
        return merged.state_dict()

    # -- exports -----------------------------------------------------------

    def export(self, *, include_spans: bool = True) -> Dict[str, Any]:
        """JSON-able summary of every metric (and, optionally, the trace)."""

        self._run_collectors()
        self._publish_span_drops()
        with self._lock:
            payload: Dict[str, Any] = {
                "enabled": self._enabled,
                "counters": {name: c.value for name, c in sorted(self._counters.items())},
                "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
                "histograms": {
                    name: h.summary() for name, h in sorted(self._histograms.items())
                },
            }
            if include_spans:
                payload["spans"] = [dict(record) for record in self._spans]
        return payload

    def export_prometheus(self) -> str:
        """Prometheus text exposition (metrics only; spans are JSON-only)."""

        self._run_collectors()
        self._publish_span_drops()
        lines: List[str] = []
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        for name, counter in counters:
            prom = _prometheus_name(name)
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {counter.value}")
        for name, gauge in gauges:
            prom = _prometheus_name(name)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {gauge.value}")
        for name, hist in histograms:
            prom = _prometheus_name(name)
            summary = hist.summary()
            lines.append(f"# TYPE {prom} histogram")
            for bucket in summary["buckets"]:
                lines.append(
                    f'{prom}_bucket{{le="{bucket["le"]}"}} {bucket["count"]}'
                )
            lines.append(f"{prom}_sum {summary['sum']}")
            lines.append(f"{prom}_count {summary['count']}")
        return "\n".join(lines) + "\n"

    def dump(self) -> Dict[str, Any]:
        """The ``--metrics-out`` file payload: summary + mergeable state."""

        return {
            "telemetry_version": 1,
            "export": self.export(),
            "state": self.state_dict(),
        }

    @classmethod
    def export_state(cls, state: Dict[str, Any]) -> Dict[str, Any]:
        """Summarize a ``state_dict`` (e.g. one shard's) without a live
        registry — used by ``fleet_report()`` and the telemetry CLI."""

        return cls().load_state_dict(state).export(include_spans=False)

    # -- lifecycle ---------------------------------------------------------

    def reset(self, *, clear_collectors: bool = False) -> None:
        """Drop all metrics and spans (tests/benchmarks).

        Collectors survive by default — modules register them once at import
        time (density backend cache, mmap cache) and they only re-publish
        gauges, so keeping them across resets is what callers want.
        """

        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}
            if clear_collectors:
                self._collectors = []
            self._spans.clear()
            self._spans_dropped = 0
            self._span_ids = itertools.count(1)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        with self._lock:
            return (
                f"MetricsRegistry(enabled={self._enabled}, "
                f"counters={len(self._counters)}, gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, spans={len(self._spans)})"
            )
