"""Checkpointing tests for the serving monitor.

The guarantee under test: a :class:`FairnessMonitor` paused mid-stream via
``state_dict`` (directly or through a saved artifact) and resumed into a
fresh instance behaves **bit-identically** to the uninterrupted monitor —
same windowed reports, same drift/density/group statuses, same eviction
decisions — for the remainder of the stream.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import profile_partitions
from repro.datasets import make_drifted_groups, split_dataset
from repro.density import KernelDensity
from repro.exceptions import ArtifactError, ValidationError
from repro.learners.base import clone
from repro.serving import (
    FairnessMonitor,
    GroupShiftStatus,
    MonitorThresholds,
    load_artifact,
    save_artifact,
)
from repro.serving.artifacts import MANIFEST_NAME, read_manifest

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

