"""Checkpointing and window-sum tests for the serving monitor.

The guarantee under test: a :class:`FairnessMonitor` paused mid-stream via
``state_dict`` (directly or through a saved artifact) and resumed into a
fresh instance behaves **bit-identically** to the uninterrupted monitor —
same windowed reports, same drift/density/group statuses, same eviction
decisions — for the remainder of the stream.  The window's channel sums are
exact: every windowed mean is the correctly rounded sum of the retained
chunk sums over the scored rows, whatever was evicted before.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import profile_partitions
from repro.datasets import make_drifted_groups, split_dataset
from repro.density import KernelDensity
from repro.exceptions import ArtifactError, ValidationError
from repro.fairness import StreamCounts
from repro.learners.base import clone
from repro.serving import (
    FairnessMonitor,
    GroupShiftStatus,
    MonitorThresholds,
    load_artifact,
    save_artifact,
)
from repro.serving.artifacts import MANIFEST_NAME, read_manifest
from repro.serving.monitor import MonitorChunk

SPLIT = split_dataset(
    make_drifted_groups(
        n_majority=500, n_minority=200, n_features=4, name="mon-syn", random_state=9
    ),
    random_state=9,
)


def make_monitor(window_size=300) -> FairnessMonitor:
    train = SPLIT.train
    monitor = FairnessMonitor(
        window_size=window_size,
        profile=profile_partitions(train),
        density_estimator=KernelDensity(bandwidth="scott").fit(train.numeric_X),
        thresholds=MonitorThresholds(min_samples=40),
    )
    monitor.set_baselines(
        violation=train.X,
        log_density=SPLIT.validation.X,
        group_fraction=train.group,
    )
    return monitor


def traffic_batches(n_batches, *, start=0, size=70):
    rng = np.random.default_rng(77)
    deploy = SPLIT.deploy
    batches = []
    for index in range(start + n_batches):
        rows = rng.integers(0, deploy.n_samples, size)
        predictions = rng.integers(0, 2, size)
        batches.append(
            (predictions, deploy.group[rows], deploy.y[rows], deploy.X[rows])
        )
    return batches[start:]


def feed(monitor, batches) -> None:
    for predictions, group, y_true, X in batches:
        monitor.update(predictions, group, y_true=y_true, X=X)


def assert_same_state(a: FairnessMonitor, b: FairnessMonitor) -> None:
    assert a.windowed_summary() == b.windowed_summary()
    assert a.windowed_report().to_dict() == b.windowed_report().to_dict()
    assert a.drift_status() == b.drift_status()
    assert a.density_status() == b.density_status()
    assert a.group_status() == b.group_status()
    assert a.n_window == b.n_window and a.n_seen == b.n_seen


class TestCheckpointResume:
    def test_state_dict_round_trip_is_bit_identical(self):
        uninterrupted = make_monitor()
        feed(uninterrupted, traffic_batches(6))

        paused = make_monitor()
        feed(paused, traffic_batches(3))
        resumed = clone(paused)
        resumed.load_state_dict(paused.state_dict())
        # The remainder of the stream hits both monitors; window eviction
        # fires along the way, exercising the restored chunk deque.
        feed(resumed, traffic_batches(3, start=3))
        assert_same_state(uninterrupted, resumed)

    def test_artifact_round_trip_resumes_bit_identically(self, tmp_path):
        uninterrupted = make_monitor()
        feed(uninterrupted, traffic_batches(6))

        paused = make_monitor()
        feed(paused, traffic_batches(3))
        save_artifact(paused, tmp_path / "monitor")
        resumed = load_artifact(tmp_path / "monitor")
        assert isinstance(resumed, FairnessMonitor)
        feed(resumed, traffic_batches(3, start=3))
        assert_same_state(uninterrupted, resumed)

    def test_fresh_monitor_state_round_trips(self):
        monitor = FairnessMonitor(window_size=10)
        restored = FairnessMonitor(window_size=10)
        restored.load_state_dict(monitor.state_dict())
        assert restored.n_window == 0 and restored.n_seen == 0
        assert restored.group_status() == GroupShiftStatus(0, 0.0, None, None, False)

    def test_unknown_state_key_rejected(self):
        monitor = FairnessMonitor(window_size=10)
        state = monitor.state_dict()
        state["bogus_"] = 1
        with pytest.raises(ValidationError, match="bogus_"):
            FairnessMonitor(window_size=10).load_state_dict(state)

    def test_manifest_with_a_removed_flat_param_fails_to_load(self, tmp_path):
        """Monitor artifacts that still carry a flat threshold param (the
        spelling removed in 2.0.0) are refused, not silently migrated."""
        path = save_artifact(FairnessMonitor(window_size=10), tmp_path / "monitor")
        manifest = read_manifest(path)
        manifest["root"]["value"]["params"]["items"].append(["drift_factor", 3.0])
        (path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ArtifactError, match="drift_factor"):
            load_artifact(path)

    def test_missing_state_key_rejected(self):
        monitor = FairnessMonitor(window_size=10)
        state = monitor.state_dict()
        state.pop("n_seen_")
        with pytest.raises(ValidationError, match="n_seen_"):
            FairnessMonitor(window_size=10).load_state_dict(state)

    def test_mismatched_chunk_arrays_rejected(self):
        monitor = make_monitor()
        feed(monitor, traffic_batches(2))
        state = monitor.state_dict()
        state["chunk_rows_"] = state["chunk_rows_"][:1]
        with pytest.raises(ValidationError, match="chunk"):
            make_monitor().load_state_dict(state)

    @pytest.mark.parametrize(
        "key, corrupt, entry, match",
        [
            ("chunk_counts_", lambda a: np.concatenate([a, a[:, :1]], axis=1), "load", "shapes"),
            ("chunk_counts_", lambda a: np.concatenate([a, a[:, :1]], axis=1), "merge", "shapes"),
            ("chunk_rows_", lambda a: a[:, :2], "load", "shapes"),
            ("chunk_rows_", lambda a: a[:, :2], "merge", "shapes"),
            ("chunk_sums_", lambda a: a[:, :1], "load", "shapes"),
            ("chunk_sums_", lambda a: a[:, :1], "merge", "shapes"),
            # The merge rebuilds its aggregates from the chunks.
            ("window_counts_", np.zeros_like, "load", "aggregates"),
        ],
        ids=[
            "three-group-counts-load",
            "three-group-counts-merge",
            "two-column-rows-load",
            "two-column-rows-merge",
            "one-column-sums-load",
            "one-column-sums-merge",
            "zero-window-counts-load",
        ],
    )
    def test_corrupt_state_fails_validation(self, key, corrupt, entry, match):
        monitor = make_monitor()
        feed(monitor, traffic_batches(2))
        state = monitor.state_dict()
        state[key] = corrupt(state[key])
        with pytest.raises(ValidationError, match=match):
            if entry == "load":
                make_monitor().load_state_dict(state)
            else:
                FairnessMonitor.merge_state_dicts([state], window_size=monitor.window_size)


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def assert_means_are_fsums(monitor: FairnessMonitor) -> None:
    """Both windowed means equal ``math.fsum(retained chunk sums) / n``."""
    sums = monitor.state_dict()["chunk_sums_"]
    for status, column, mean in (
        (monitor.drift_status(), 0, "mean_violation"),
        (monitor.density_status(), 1, "mean_log_density"),
    ):
        n = status.n_scored
        expected = math.fsum(sums[:, column].tolist()) / n if n else 0.0
        assert same_bits(getattr(status, mean), expected), (mean, getattr(status, mean), expected)


# Finite chunk sums across the double range, subnormals included; -0.0 is
# folded into 0.0 because an exact integer total carries no sign of zero.
CHUNK_SUMS = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False).map(
    lambda x: x + 0.0
)
CHUNKS = st.lists(
    st.tuples(st.integers(1, 40), CHUNK_SUMS, CHUNK_SUMS), min_size=1, max_size=60
)


def scored_chunk(rows: int, violation_sum: float, log_density_sum: float) -> MonitorChunk:
    return MonitorChunk(StreamCounts(), rows, violation_sum, rows, log_density_sum, rows)


class TestExactWindowSums:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(chunks=CHUNKS, window_size=st.integers(1, 300), data=st.data())
    def test_means_are_fsums_of_the_retained_chunks(self, chunks, window_size, data):
        """After every commit (evictions included) and through a merge of
        any sharding, each windowed mean is bit for bit the fsum of the
        retained chunk sums over the scored rows."""
        union = FairnessMonitor(window_size=window_size)
        for chunk in chunks:
            union.commit(scored_chunk(*chunk))
            assert_means_are_fsums(union)

        n_shards = data.draw(st.integers(1, 4))
        owners = data.draw(
            st.lists(st.integers(0, n_shards - 1), min_size=len(chunks), max_size=len(chunks))
        )
        shards = [FairnessMonitor(window_size=window_size) for _ in range(n_shards)]
        for sequence, (chunk, owner) in enumerate(zip(chunks, owners)):
            shards[owner].commit(scored_chunk(*chunk), sequence=sequence)
        merged = FairnessMonitor(window_size=window_size).load_state_dict(
            FairnessMonitor.merge_state_dicts(
                [shard.state_dict() for shard in shards], window_size=window_size
            )
        )
        assert_means_are_fsums(merged)
        assert merged.drift_status() == union.drift_status()
        assert merged.density_status() == union.density_status()

    def test_an_evicted_chunk_leaves_no_rounding_behind(self):
        """1e16 + 1 rounds to 1e16 in a double; the exact total keeps the 1.
        A left fold of the retained sums read 0.0 after the third commit."""
        monitor = FairnessMonitor(window_size=3)
        stream = (1e16, 1.0, -1e16, 2.0, 0.5)
        for index, violation_sum in enumerate(stream):
            monitor.commit(scored_chunk(1, violation_sum, 0.0))
            retained = stream[max(0, index - 2) : index + 1]
            assert monitor.drift_status().mean_violation == math.fsum(retained) / len(retained)
            if index == 2:
                assert monitor.drift_status().mean_violation == 1.0 / 3

    def test_resumed_totals_are_rebuilt_from_the_chunks(self):
        monitor = make_monitor()
        feed(monitor, traffic_batches(6))
        resumed = clone(monitor).load_state_dict(monitor.state_dict())
        assert_means_are_fsums(resumed)
        assert_same_state(monitor, resumed)


class TestScoreAndCommit:
    def test_score_reads_no_window_state(self):
        monitor = make_monitor()
        feed(monitor, traffic_batches(2))
        before = monitor.state_dict()
        predictions, group, y_true, X = traffic_batches(1, start=2)[0]
        chunk = monitor.score(predictions, group, y_true=y_true, X=X)
        after = monitor.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)
        assert chunk.rows == chunk.violation_rows == chunk.log_density_rows == len(X)

        updated = make_monitor()
        feed(updated, traffic_batches(3))
        assert monitor.commit(chunk) == 2
        assert_same_state(monitor, updated)

    def test_non_finite_sum_is_rejected_before_any_state_change(self, monkeypatch):
        monitor = make_monitor()
        feed(monitor, traffic_batches(2))
        before = monitor.state_dict()
        monkeypatch.setattr(monitor, "log_density_scores", lambda X: np.full(len(X), np.inf))
        predictions, group, y_true, X = traffic_batches(1, start=2)[0]
        with pytest.raises(ValidationError, match="not finite"):
            monitor.update(predictions, group, y_true=y_true, X=X)
        after = monitor.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)

    def test_non_finite_chunk_sums_fail_validation_on_load(self):
        monitor = make_monitor()
        feed(monitor, traffic_batches(2))
        state = monitor.state_dict()
        state["chunk_sums_"] = state["chunk_sums_"].copy()
        state["chunk_sums_"][0, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            make_monitor().load_state_dict(state)


class TestGroupChannel:
    def test_no_baseline_means_no_alarm(self):
        monitor = FairnessMonitor(window_size=100, thresholds=MonitorThresholds(min_samples=10))
        monitor.update(np.ones(20, dtype=int), np.ones(20, dtype=int))
        status = monitor.group_status()
        assert status.baseline_fraction is None and not status.alarm
        assert monitor.group_baseline_fraction is None
        assert "group" not in monitor.windowed_summary()

    def test_alarm_fires_on_shifted_mix(self):
        monitor = FairnessMonitor(
            window_size=100, thresholds=MonitorThresholds(min_samples=10, group_tolerance=0.2)
        )
        monitor.set_baselines(group_fraction=0.3)
        group = np.ones(50, dtype=int)
        group[:5] = 0  # 90% minority vs 30% baseline
        monitor.update(np.ones(50, dtype=int), group)
        status = monitor.group_status()
        assert status.alarm and status.shift == pytest.approx(0.6)
        assert monitor.windowed_summary()["group"]["alarm"] is True

    def test_min_samples_guards_the_alarm(self):
        monitor = FairnessMonitor(
            window_size=100, thresholds=MonitorThresholds(min_samples=30, group_tolerance=0.1)
        )
        monitor.set_baselines(group_fraction=0.2)
        monitor.update(np.ones(10, dtype=int), np.ones(10, dtype=int))
        assert not monitor.group_status().alarm

    def test_baseline_from_array_and_scalar_agree(self):
        group = np.array([0, 1, 1, 0, 1])
        a = FairnessMonitor(window_size=10)
        b = FairnessMonitor(window_size=10)
        assert a.set_baselines(group_fraction=group) == b.set_baselines(group_fraction=0.6)

    def test_invalid_baseline_rejected(self):
        monitor = FairnessMonitor(window_size=10)
        with pytest.raises(ValidationError):
            monitor.set_baselines(group_fraction=1.5)
        with pytest.raises(ValidationError):
            monitor.set_baselines(group_fraction=np.array([]))

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="group_tolerance"):
            FairnessMonitor(thresholds=MonitorThresholds(group_tolerance=0.0))

    def test_scalar_conformance_and_density_baselines(self):
        monitor = make_monitor()
        assert monitor.set_baselines(violation=0.125).violation == 0.125
        assert monitor.set_baselines(log_density=-3.5).log_density == -3.5
        assert monitor.drift_status().baseline_violation == 0.125
        assert monitor.density_status().baseline_log_density == -3.5

