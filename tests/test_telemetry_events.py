"""Unit and property-based tests for the flight recorder (``repro.telemetry.events``).

The load-bearing contract mirrors the metrics registry's: shard-local event
logs fold into one fleet-level log **bit-identically to the log a single
process would have recorded observing the union stream**, independent of
shard split and merge order (hypothesis-tested below over random events and
random per-sequence 4-way shard assignments — the fleet's shape).  Around
it: the bounded-retention horizon, duplicate-key rejection, JSONL round
trips, and the alarm-forensics promise that ``FairnessMonitor.alarm_report``
values match the status objects exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import TelemetryError
from repro.serving.monitor import FairnessMonitor, MonitorThresholds
from repro.telemetry import EVENT_KINDS, EventLog

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# One drawn event: a sequence stamp, a kind, and one payload attribute.
# Repeated (sequence, kind) pairs are deliberate — they exercise the
# per-slot ``index`` counter that keeps same-slot events distinct.
events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.sampled_from(EVENT_KINDS),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=120,
)

# Shard assignment is per *sequence*, not per event: in the fleet one
# request sequence lands on exactly one shard, so every event of that
# sequence is recorded by the same log (the merge contract's partition
# precondition).
assignment_strategy = st.lists(
    st.integers(min_value=0, max_value=3), min_size=41, max_size=41
)


class TestEventLogBasics:
    def test_disabled_log_records_nothing(self):
        log = EventLog()
        assert log.emit("request", sequence=0) is None
        assert len(log) == 0 and log.n_emitted == 0
        assert log.enable().emit("request", sequence=0) is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="unknown event kind"):
            EventLog(enabled=True).emit("bogus", sequence=0)

    def test_max_events_must_be_positive(self):
        with pytest.raises(TelemetryError, match="at least 1"):
            EventLog(max_events=0)

    def test_same_slot_events_get_increasing_indices(self):
        log = EventLog(enabled=True)
        first = log.emit("alarm_edge", sequence=5, channel="group")
        second = log.emit("alarm_edge", sequence=5, channel="density")
        assert (first["index"], second["index"]) == (0, 1)

    def test_records_filter_by_kind_and_since(self):
        log = EventLog(enabled=True)
        log.emit("request", sequence=1)
        log.emit("alarm_edge", sequence=2)
        log.emit("request", sequence=3)
        assert [r["sequence"] for r in log.records(kind="request")] == [1, 3]
        assert [r["sequence"] for r in log.records(since=2)] == [2, 3]
        assert [r["sequence"] for r in log.tail(2)] == [2, 3]

    def test_eviction_advances_the_horizon_lowest_sequence_first(self):
        log = EventLog(enabled=True, max_events=3)
        for sequence in (4, 2, 7, 1, 9):
            log.emit("request", sequence=sequence)
        assert len(log) == 3
        assert log.n_emitted == 5
        assert log.evicted_through == 2
        assert [r["sequence"] for r in log.records()] == [4, 7, 9]

    def test_state_round_trip(self):
        log = EventLog(enabled=True)
        log.emit("request", sequence=0, rows=5)
        log.emit("channel_snapshot", sequence=0, report={"alarmed": []})
        clone = EventLog().load_state_dict(log.state_dict())
        assert clone.state_dict() == log.state_dict()


class TestExactMerge:
    @SETTINGS
    @given(drawn=events_strategy, assignment=assignment_strategy)
    def test_four_way_shard_merge_is_exact(self, drawn, assignment):
        """Random per-sequence 4-shard splits merge bit-identically."""
        capacity = 10_000
        union = EventLog(enabled=True, max_events=4 * capacity)
        shards = [EventLog(enabled=True, max_events=capacity) for _ in range(4)]
        for sequence, kind, payload in drawn:
            union.emit(kind, sequence=sequence, payload=payload)
            shards[assignment[sequence]].emit(kind, sequence=sequence, payload=payload)
        merged = EventLog.merge_state_dicts([s.state_dict() for s in shards])
        assert merged == union.state_dict()

    @SETTINGS
    @given(drawn=events_strategy, assignment=assignment_strategy)
    def test_merge_is_order_invariant_and_associative(self, drawn, assignment):
        shards = [EventLog(enabled=True) for _ in range(4)]
        for sequence, kind, payload in drawn:
            shards[assignment[sequence]].emit(kind, sequence=sequence, payload=payload)
        states = [s.state_dict() for s in shards]

        forward = EventLog.merge_state_dicts(states)
        backward = EventLog.merge_state_dicts(list(reversed(states)))
        assert forward == backward

        # ((a + b) + c) == (a + (b + c)); the capacity bookkeeping sums either way.
        left = EventLog.merge_state_dicts(
            [EventLog.merge_state_dicts(states[:2]), *states[2:]]
        )
        right = EventLog.merge_state_dicts(
            [states[0], EventLog.merge_state_dicts(states[1:])]
        )
        assert left == right

    def test_duplicate_keys_rejected(self):
        a, b = EventLog(enabled=True), EventLog(enabled=True)
        a.emit("request", sequence=3)
        b.emit("request", sequence=3)
        with pytest.raises(TelemetryError, match="duplicate event"):
            EventLog.merge_state_dicts([a.state_dict(), b.state_dict()])

    def test_merge_drops_records_below_the_shared_horizon(self):
        evicted = EventLog(enabled=True, max_events=2)
        for sequence in (1, 2, 3):  # evicts sequence 1 -> horizon 1
            evicted.emit("request", sequence=sequence)
        fresh = EventLog(enabled=True)
        fresh.emit("alarm_edge", sequence=1)  # at the horizon: dropped
        fresh.emit("alarm_edge", sequence=4)
        merged = EventLog.merge_state_dicts(
            [evicted.state_dict(), fresh.state_dict()]
        )
        assert merged["evicted_through"] == 1
        assert [(r["sequence"], r["kind"]) for r in merged["records"]] == [
            (2, "request"),
            (3, "request"),
            (4, "alarm_edge"),
        ]

    def test_empty_merge_is_the_trivial_state(self):
        merged = EventLog.merge_state_dicts([])
        assert merged["records"] == [] and merged["n_emitted"] == 0

    def test_malformed_states_rejected(self):
        with pytest.raises(TelemetryError, match="must be a dict"):
            EventLog.merge_state_dicts(["nope"])
        with pytest.raises(TelemetryError, match="schema_version"):
            EventLog.merge_state_dicts([{"schema_version": 99, "records": []}])
        with pytest.raises(TelemetryError, match="unknown kind"):
            EventLog().load_state_dict(
                {
                    "schema_version": 1,
                    "records": [{"sequence": 0, "index": 0, "kind": "bogus"}],
                }
            )


class TestJsonl:
    def test_jsonl_round_trip_preserves_the_state(self, tmp_path):
        log = EventLog(enabled=True, max_events=3)
        for sequence in (1, 2, 3, 4):  # one eviction: horizon rides the header
            log.emit("request", sequence=sequence, rows=sequence * 10)
        log.emit("channel_snapshot", sequence=4, report={"alarmed": ["group"]})
        path = log.export_jsonl(tmp_path / "events.jsonl")
        restored = EventLog.import_jsonl(path)
        assert restored.state_dict() == log.state_dict()

    def test_import_requires_the_header(self, tmp_path):
        target = tmp_path / "broken.jsonl"
        target.write_text('{"sequence": 0, "index": 0, "kind": "request"}\n')
        with pytest.raises(TelemetryError, match="header"):
            EventLog.import_jsonl(target)
        with pytest.raises(TelemetryError, match="cannot read"):
            EventLog.import_jsonl(tmp_path / "missing.jsonl")


class TestAlarmForensics:
    """``alarm_report`` must attribute alarms with the status objects' exact values."""

    def test_report_matches_group_status_at_first_alarm(self):
        monitor = FairnessMonitor(
            window_size=100,
            thresholds=MonitorThresholds(min_samples=10, group_tolerance=0.2),
        )
        monitor.set_baselines(group_fraction=0.3)
        group = np.ones(50, dtype=int)
        group[:5] = 0  # 90% minority vs 30% baseline
        monitor.update(np.ones(50, dtype=int), group)

        status = monitor.group_status()
        report = monitor.alarm_report()
        assert status.alarm
        assert report["alarmed"] == ["group"]
        channel = report["channels"]["group"]
        assert channel["statistic"] == status.minority_fraction
        assert channel["baseline"] == status.baseline_fraction
        assert channel["threshold"] == monitor.thresholds.group_tolerance
        assert channel["shift"] == status.shift
        assert channel["margin"] == pytest.approx(
            status.shift - monitor.thresholds.group_tolerance
        )
        assert channel["alarm"] is True
        assert channel["n_scored"] == status.n_scored
        assert report["last_sequence"] == monitor.last_sequence
        assert report["window_sequence_min"] == report["window_sequence_max"] == 0
        assert report["group_rates"]["minority"]["n"] == 45

    def test_report_is_quiet_without_alarms(self):
        monitor = FairnessMonitor(
            window_size=100,
            thresholds=MonitorThresholds(min_samples=10, group_tolerance=0.5),
        )
        monitor.set_baselines(group_fraction=0.5)
        monitor.update(np.ones(20, dtype=int), np.ones(20, dtype=int))
        report = monitor.alarm_report()
        assert report["alarmed"] == []
        assert report["channels"]["group"]["alarm"] is False
        # Empty-group selection rates are None, not a division crash.
        assert report["group_rates"]["majority"]["selection_rate"] is None

    def test_report_is_json_serializable(self):
        import json

        monitor = FairnessMonitor(
            window_size=50, thresholds=MonitorThresholds(min_samples=5)
        )
        monitor.set_baselines(group_fraction=0.4)
        monitor.update(np.ones(10, dtype=int), np.ones(10, dtype=int))
        report = monitor.alarm_report()
        assert json.loads(json.dumps(report)) == report
