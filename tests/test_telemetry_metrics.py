"""Unit and property-based tests for ``repro.telemetry`` primitives.

The load-bearing contract is **exact histogram merging**: observations are
quantized to integers at record time, so per-shard histograms fold into one
view bit-identically to a histogram that observed the union stream,
independent of shard split and merge order (hypothesis-tested below over
random values and random 4-way shard assignments — the fleet's shape).
Around it: counter/gauge semantics, name-collision and layout-mismatch
rejection, span nesting, collectors, and the Prometheus/JSON exports.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import TelemetryError
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.metrics import MAX_SPANS

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

latencies = st.lists(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=120,
)


def enabled_registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        counter = enabled_registry().counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_decrease(self):
        counter = enabled_registry().counter("c")
        with pytest.raises(TelemetryError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_holds_last_value(self):
        gauge = enabled_registry().gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_create_or_get_returns_same_object(self):
        registry = enabled_registry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")

    def test_cross_kind_name_collision_rejected(self):
        registry = enabled_registry()
        registry.counter("x")
        with pytest.raises(TelemetryError, match="already registered as a counter"):
            registry.gauge("x")
        with pytest.raises(TelemetryError, match="already registered as a counter"):
            registry.histogram("x")


class TestHistogram:
    def test_basic_statistics(self):
        hist = enabled_registry().histogram("h")
        for value in (0.001, 0.002, 0.5):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.503)
        assert hist.mean == pytest.approx(0.503 / 3)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.5)

    def test_bucket_bounds_are_upper_inclusive(self):
        hist = enabled_registry().histogram("h", buckets=(1.0, 2.0), resolution=1.0)
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        counts = hist.state_dict()["counts"]
        assert counts == [1, 1, 1]  # 1.0 -> le=1, 2.0 -> le=2, 3.0 -> +Inf

    def test_quantiles_clamp_to_observed_max(self):
        hist = enabled_registry().histogram("h", buckets=(1.0, 10.0), resolution=1.0)
        for value in (1, 1, 1, 3):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        # p99 lands in the le=10 bucket but nothing above 3 was observed.
        assert hist.quantile(0.99) == 3.0
        assert hist.quantile(1.0) == 3.0
        for label, value in hist.summary()["quantiles"].items():  # "p50" -> 0.50
            assert value == hist.quantile(int(label[1:]) / 100)

    def test_empty_histogram_reports_none(self):
        hist = enabled_registry().histogram("h")
        assert hist.quantile(0.5) is None
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["mean"] is None
        assert summary["quantiles"]["p99"] is None

    def test_invalid_layouts_rejected(self):
        registry = enabled_registry()
        with pytest.raises(TelemetryError, match="at least one bucket"):
            registry.histogram("a", buckets=())
        with pytest.raises(TelemetryError, match="strictly increasing"):
            registry.histogram("b", buckets=(1.0, 1.0))
        with pytest.raises(TelemetryError, match="resolution must be positive"):
            registry.histogram("c", resolution=0.0)
        with pytest.raises(TelemetryError, match="quantile fraction"):
            registry.histogram("d").quantile(1.5)

    def test_reregistration_with_other_layout_rejected(self):
        registry = enabled_registry()
        registry.histogram("h", buckets=DEFAULT_LATENCY_BUCKETS)
        with pytest.raises(TelemetryError, match="different"):
            registry.histogram("h", buckets=DEFAULT_SIZE_BUCKETS, resolution=1.0)

    def test_merge_rejects_layout_mismatch(self):
        a = enabled_registry().histogram("h", buckets=(1.0, 2.0), resolution=1.0)
        b = enabled_registry().histogram("h", buckets=(1.0, 3.0), resolution=1.0)
        with pytest.raises(TelemetryError, match="layout mismatch"):
            a.merge_state(b.state_dict())

    @SETTINGS
    @given(
        values=latencies,
        assignment=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=120),
    )
    def test_four_way_shard_merge_is_exact(self, values, assignment):
        """Random 4-shard splits merge bit-identically to the union stream."""
        union = enabled_registry().histogram("h")
        shards = [enabled_registry().histogram("h") for _ in range(4)]
        for i, value in enumerate(values):
            union.observe(value)
            shards[assignment[i % len(assignment)]].observe(value)
        merged = enabled_registry().histogram("h")
        for shard in shards:
            merged.merge_state(shard.state_dict())
        assert merged.state_dict() == union.state_dict()

    @SETTINGS
    @given(values=latencies, seed=st.integers(min_value=0, max_value=2**16))
    def test_merge_is_order_invariant_and_associative(self, values, seed):
        import random

        shards = [enabled_registry().histogram("h") for _ in range(3)]
        rng = random.Random(seed)
        for value in values:
            shards[rng.randrange(3)].observe(value)
        states = [s.state_dict() for s in shards]

        forward = enabled_registry().histogram("h")
        for state in states:
            forward.merge_state(state)
        backward = enabled_registry().histogram("h")
        for state in reversed(states):
            backward.merge_state(state)
        assert forward.state_dict() == backward.state_dict()

        # ((a + b) + c) == (a + (b + c)) via registry-level merges.
        left = MetricsRegistry.merge_state_dicts(
            [
                MetricsRegistry.merge_state_dicts(
                    [{"histograms": {"h": states[0]}}, {"histograms": {"h": states[1]}}]
                ),
                {"histograms": {"h": states[2]}},
            ]
        )
        right = MetricsRegistry.merge_state_dicts(
            [
                {"histograms": {"h": states[0]}},
                MetricsRegistry.merge_state_dicts(
                    [{"histograms": {"h": states[1]}}, {"histograms": {"h": states[2]}}]
                ),
            ]
        )
        assert left == right


class TestRegistryState:
    def test_state_round_trip(self):
        registry = enabled_registry()
        registry.counter("requests").inc(7)
        registry.gauge("cache").set(2.0)
        registry.histogram("lat").observe(0.25)
        clone = MetricsRegistry().load_state_dict(registry.state_dict())
        assert clone.state_dict() == registry.state_dict()

    def test_merge_state_dicts_sums_counters_and_gauges(self):
        a, b = enabled_registry(), enabled_registry()
        a.counter("requests").inc(3)
        b.counter("requests").inc(4)
        a.gauge("hits").set(1.0)
        b.gauge("hits").set(2.5)
        merged = MetricsRegistry.merge_state_dicts([a.state_dict(), b.state_dict()])
        assert merged["counters"]["requests"] == 7
        assert merged["gauges"]["hits"] == 3.5

    def test_malformed_state_rejected(self):
        with pytest.raises(TelemetryError, match="must be a dict"):
            MetricsRegistry().load_state_dict(["not", "a", "dict"])
        with pytest.raises(TelemetryError, match="must be a dict"):
            MetricsRegistry.merge_state_dicts([{"counters": [1, 2]}])

    def test_export_state_summarizes_without_live_registry(self):
        registry = enabled_registry()
        registry.histogram("lat").observe(0.01)
        export = MetricsRegistry.export_state(registry.state_dict())
        assert export["histograms"]["lat"]["count"] == 1
        assert "spans" not in export

    def test_collectors_publish_at_export_and_survive_reset(self):
        registry = enabled_registry()
        calls = []

        def collector(r):
            calls.append(1)
            r.gauge("external.stat").set(len(calls))

        registry.add_collector(collector)
        registry.add_collector(collector)  # deduplicated
        assert registry.export()["gauges"]["external.stat"] == 1.0
        registry.reset()
        assert registry.state_dict()["gauges"]["external.stat"] == 2.0
        registry.reset(clear_collectors=True)
        assert "external.stat" not in registry.export()["gauges"]


class TestSpans:
    def test_nesting_links_parent_ids(self):
        registry = enabled_registry()
        with registry.span("outer", stage="fit") as outer:
            with registry.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        trace = registry.trace()
        assert [record["name"] for record in trace] == ["inner", "outer"]
        assert trace[0]["parent_id"] == trace[1]["span_id"]
        assert trace[1]["parent_id"] is None
        assert trace[1]["attributes"] == {"stage": "fit"}
        assert all(record["duration_seconds"] >= 0 for record in trace)

    def test_span_attributes_settable_inside(self):
        registry = enabled_registry()
        with registry.span("work") as handle:
            handle.set(rows=12)
        assert registry.trace()[0]["attributes"] == {"rows": 12}

    def test_exception_marks_span_errored(self):
        registry = enabled_registry()
        with pytest.raises(RuntimeError):
            with registry.span("boom"):
                raise RuntimeError("nope")
        assert registry.trace()[0]["status"] == "error"

    def test_span_durations_feed_histograms(self):
        registry = enabled_registry()
        with registry.span("work"):
            pass
        assert registry.export()["histograms"]["span.work.seconds"]["count"] == 1

    def test_disabled_registry_spans_are_noops(self):
        registry = MetricsRegistry()
        with registry.span("ignored") as handle:
            handle.set(rows=1)  # chainable no-op
        assert registry.trace() == []
        assert registry.span("a") is registry.span("b")  # shared singleton

    def test_full_span_buffer_drops_oldest_and_counts(self):
        registry = enabled_registry()
        for index in range(MAX_SPANS + 3):
            with registry.span("work", index=index):
                pass
        trace = registry.trace()
        assert len(trace) == MAX_SPANS
        assert trace[0]["attributes"] == {"index": 3}
        assert registry.state_dict()["counters"]["span.dropped"] == 3
        registry.export()
        registry.export()  # publishing the drop count again adds nothing
        assert registry.state_dict()["counters"]["span.dropped"] == 3

    def test_per_thread_stacks_trace_independently(self):
        registry = enabled_registry()
        barrier = threading.Barrier(2)

        def work(tag):
            with registry.span("outer", tag=tag):
                barrier.wait(timeout=10)
                with registry.span("inner", tag=tag):
                    pass

        threads = [threading.Thread(target=work, args=(t,)) for t in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        trace = registry.trace()
        by_id = {record["span_id"]: record for record in trace}
        for record in trace:
            if record["name"] == "inner":
                parent = by_id[record["parent_id"]]
                assert parent["attributes"]["tag"] == record["attributes"]["tag"]


class TestExports:
    def test_prometheus_exposition_shape(self):
        registry = enabled_registry()
        registry.counter("serving.requests_total").inc(2)
        registry.gauge("cache.hits").set(1.0)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.export_prometheus()
        assert "# TYPE serving_requests_total counter" in text
        assert "serving_requests_total 2" in text
        assert "# TYPE cache_hits gauge" in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert text.endswith("\n")

    def test_dump_is_json_serializable_and_versioned(self):
        registry = enabled_registry()
        registry.histogram("lat").observe(0.01)
        with registry.span("work"):
            pass
        payload = registry.dump()
        assert payload["telemetry_version"] == 1
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["state"]["histograms"]["lat"]["counts"] == (
            payload["state"]["histograms"]["lat"]["counts"]
        )

    def test_export_orders_names_deterministically(self):
        registry = enabled_registry()
        for name in ("b", "a", "c"):
            registry.counter(name).inc()
        assert list(registry.export()["counters"]) == ["a", "b", "c"]
