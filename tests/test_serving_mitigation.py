"""Mitigation-loop and monitor-configuration tests — the PR's acceptance
criteria:

on a ``group_shift`` replay the controller must refit, shadow-score, and
promote with windowed DI* recovery and no balanced-accuracy regression while
a stationary control replay stays promotion-free; the audit trail must
replay bit-identically through its schema-versioned artifact; and
``calibrate_thresholds`` must hit the requested false-alarm rate (one-sided:
achieved ≤ target) with a :class:`MonitorThresholds` that survives its JSON
form and drives a bit-identical monitor.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import FairnessPipeline
from repro.datasets import load_dataset, split_dataset
from repro.exceptions import ArtifactError, ValidationError
from repro.serving import (
    FairnessMonitor,
    MitigationController,
    MitigationTransition,
    MonitorBaselines,
    MonitorThresholds,
    PredictionService,
    calibrate_thresholds,
    find_profile,
    load_audit_trail,
    save_audit_trail,
    summarize_transitions,
)
from repro.serving.mitigation import ACCURACY_TOLERANCE, BUFFER_ROWS, DI_TOLERANCE
from repro.simulate import ReplayHarness, SuiteRunner, TrafficStream, make_scenario

SIZE_FACTOR = 0.03
SEED = 7


@pytest.fixture(scope="module")
def fitted():
    """A ConFair fit on MEPS plus its split (shared by the loop tests)."""
    data = load_dataset("meps", size_factor=SIZE_FACTOR, random_state=SEED)
    split = split_dataset(data, random_state=SEED)
    result = FairnessPipeline(
        "confair", learner="lr", dataset=split, seed=SEED
    ).run()
    return data, split, result


@pytest.fixture(scope="module")
def runner(fitted):
    _, split, result = fitted
    return SuiteRunner(
        result.model,
        split.train,
        profile=find_profile(result),
        window_size=600,
        thresholds=MonitorThresholds(group_tolerance=0.15, min_samples=50),
        mitigation_params=dict(
            min_refit_rows=300,
            min_shadow_steps=3,
            max_shadow_steps=15,
            cooldown_steps=4,
        ),
    )


def make_controller(fitted, **overrides):
    data, split, result = fitted
    monitor = FairnessMonitor(
        window_size=600,
        profile=find_profile(result),
        thresholds=MonitorThresholds(group_tolerance=0.15, min_samples=50),
    )
    monitor.set_baselines(
        violation=split.train.X,
        group_fraction=float(split.train.minority_fraction),
    )
    service = PredictionService(result.model, batch_size=512, monitor=monitor)
    params = dict(
        intervention="confair",
        learner="lr",
        seed=SEED,
        n_numeric_features=data.n_numeric_features,
        min_refit_rows=300,
        min_shadow_steps=3,
        max_shadow_steps=15,
        cooldown_steps=4,
    )
    params.update(overrides)
    return MitigationController(service, **params)


def drift_stream(split, *, scenario="group_shift", n_steps=40):
    return TrafficStream(
        split.deploy,
        make_scenario(scenario),
        n_steps=n_steps,
        batch_size=100,
        random_state=SEED,
    )


# ---------------------------------------------------------------------------
# MonitorThresholds / MonitorBaselines
# ---------------------------------------------------------------------------
class TestMonitorThresholds:
    def test_defaults_match_the_flat_defaults(self):
        thresholds = MonitorThresholds()
        assert thresholds.drift_factor == 3.0
        assert thresholds.min_violation == 0.05
        assert thresholds.min_samples == 50
        assert thresholds.density_drop == 1.0
        assert thresholds.group_tolerance == 0.15

    def test_dict_round_trip(self):
        thresholds = MonitorThresholds(drift_factor=2.0, min_samples=10)
        assert MonitorThresholds.from_dict(thresholds.to_dict()) == thresholds

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="bogus"):
            MonitorThresholds.from_dict({"bogus": 1.0})

    def test_replace_returns_new_validated_object(self):
        base = MonitorThresholds()
        changed = base.replace(group_tolerance=0.4)
        assert changed.group_tolerance == 0.4
        assert base.group_tolerance == 0.15
        with pytest.raises(ValidationError):
            base.replace(group_tolerance=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drift_factor": 0.0},
            {"drift_factor": -1.0},
            {"min_violation": -0.01},  # bugfix: silently accepted before
            {"min_samples": 0},  # bugfix: silently accepted before
            {"min_samples": -5},
            {"density_drop": 0.0},
            {"group_tolerance": 0.0},
            {"group_tolerance": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            MonitorThresholds(**kwargs)

    def test_monitor_constructor_validates_the_bugfixed_fields(self):
        with pytest.raises(ValidationError, match="min_violation"):
            FairnessMonitor(window_size=10, thresholds=MonitorThresholds(min_violation=-1.0))
        with pytest.raises(ValidationError, match="MonitorThresholds"):
            FairnessMonitor(window_size=10, thresholds={"min_samples": 0})

    def test_thresholds_ride_state_dicts_and_artifacts(self, tmp_path):
        from repro.serving import load_artifact, save_artifact

        thresholds = MonitorThresholds(min_samples=20, group_tolerance=0.2)
        monitor = FairnessMonitor(window_size=100, thresholds=thresholds)
        monitor.set_baselines(group_fraction=0.4)
        state = monitor.state_dict()
        assert state["thresholds_"] == thresholds.to_dict()
        restored = FairnessMonitor(window_size=100)
        restored.load_state_dict(state)
        assert restored.thresholds == thresholds
        save_artifact(monitor, tmp_path / "monitor")
        loaded = load_artifact(tmp_path / "monitor")
        assert loaded.thresholds == thresholds
        assert loaded.baselines == monitor.baselines

    def test_merge_rejects_diverging_thresholds(self):
        a = FairnessMonitor(window_size=100, thresholds=MonitorThresholds(min_samples=20))
        b = FairnessMonitor(window_size=100, thresholds=MonitorThresholds(min_samples=30))
        with pytest.raises(ValidationError, match="thresholds"):
            FairnessMonitor.merge_state_dicts(
                [a.state_dict(), b.state_dict()], window_size=100
            )
        with pytest.raises(ValidationError, match="thresholds"):
            FairnessMonitor.merge(a, b)


class TestMonitorBaselines:
    def test_dict_round_trip(self):
        baselines = MonitorBaselines(violation=0.1, group_fraction=0.3)
        assert MonitorBaselines.from_dict(baselines.to_dict()) == baselines
        assert baselines.log_density is None

    def test_invalid_group_fraction_rejected(self):
        with pytest.raises(ValidationError):
            MonitorBaselines(group_fraction=1.5)

    def test_set_baselines_accepts_object_or_channels_not_both(self):
        monitor = FairnessMonitor(window_size=10)
        installed = monitor.set_baselines(group_fraction=0.25)
        assert installed.group_fraction == 0.25
        other = FairnessMonitor(window_size=10)
        assert other.set_baselines(installed) == installed
        with pytest.raises(ValidationError, match="not both"):
            other.set_baselines(installed, group_fraction=0.5)


def assert_same_monitor_state(a, b):
    """The observable contract of bit-identical monitors."""
    assert a.thresholds == b.thresholds
    assert a.baselines == b.baselines
    assert a.windowed_summary() == b.windowed_summary()
    assert a.drift_status() == b.drift_status()
    assert a.density_status() == b.density_status()
    assert a.group_status() == b.group_status()
    assert a.n_window == b.n_window and a.n_seen == b.n_seen


# ---------------------------------------------------------------------------
# transitions and the audit trail
# ---------------------------------------------------------------------------
class TestTransitions:
    def test_unknown_event_rejected(self):
        with pytest.raises(ValidationError, match="event"):
            MitigationTransition(event="reboot", step=1, n_seen=10, details={})

    def test_non_scalar_details_rejected(self):
        with pytest.raises(ValidationError, match="JSON scalar"):
            MitigationTransition(
                event="alarm", step=1, n_seen=10, details={"x": np.zeros(3)}
            )

    def test_dict_round_trip(self):
        transition = MitigationTransition(
            event="promote", step=4, n_seen=400, details={"shadow_steps": 3}
        )
        assert MitigationTransition.from_dict(transition.to_dict()) == transition

    def test_summarize(self):
        transitions = [
            MitigationTransition(event="alarm", step=2, n_seen=200, details={}),
            MitigationTransition(event="refit", step=4, n_seen=400, details={}),
            MitigationTransition(event="shadow_start", step=4, n_seen=400, details={}),
            MitigationTransition(event="promote", step=7, n_seen=700, details={}),
        ]
        summary = summarize_transitions(transitions)
        assert summary["promoted"] is True
        assert summary["first_promote_step"] == 7
        assert summary["events"]["alarm"] == 1

    def test_schema_version_mismatch_rejected(self, tmp_path):
        from repro.serving import save_artifact

        save_artifact(
            {"mitigation_schema_version": 999, "transitions": []},
            tmp_path / "trail",
            metadata={"kind": "mitigation_audit"},
        )
        with pytest.raises(ArtifactError, match="schema"):
            load_audit_trail(tmp_path / "trail")


# ---------------------------------------------------------------------------
# threshold calibration
# ---------------------------------------------------------------------------
class TestCalibration:
    def control_batches(self, split, n_steps=30):
        return list(drift_stream(split, scenario="none", n_steps=n_steps))

    def test_calibration_hits_the_target_far(self, fitted, runner):
        _, split, _ = fitted
        calibration = runner.calibrate(
            split.deploy,
            n_steps=30,
            batch_size=100,
            seed=SEED,
            target_false_alarm_rate=0.05,
        )
        # One-sided slack: the achieved rate never exceeds the requested one.
        assert calibration.empirical_false_alarm_rate <= 0.05
        assert calibration.n_eligible_steps > 0
        assert calibration.thresholds.min_samples == 50

    def test_calibrated_thresholds_drive_a_bit_identical_monitor(self, fitted, runner):
        _, split, _ = fitted
        calibration = calibrate_thresholds(
            runner.make_monitor(),
            self.control_batches(split),
            target_false_alarm_rate=0.10,
        )
        thresholds = calibration.thresholds
        via_object = FairnessMonitor(window_size=600, thresholds=thresholds)
        # The JSON form `repro-simulate calibrate` emits, read back.
        via_json = FairnessMonitor(
            window_size=600,
            thresholds=MonitorThresholds.from_dict(json.loads(json.dumps(thresholds.to_dict()))),
        )
        for batch in self.control_batches(split, n_steps=8):
            for monitor in (via_object, via_json):
                monitor.update(
                    np.zeros(batch.X.shape[0], dtype=np.int64),
                    batch.group,
                    y_true=batch.y,
                    X=batch.X,
                )
        assert_same_monitor_state(via_object, via_json)

    def test_invalid_target_rejected(self, runner, fitted):
        _, split, _ = fitted
        with pytest.raises(ValidationError, match="target_false_alarm_rate"):
            calibrate_thresholds(
                runner.make_monitor(),
                self.control_batches(split, n_steps=2),
                target_false_alarm_rate=1.0,
            )

    def test_no_eligible_steps_rejected(self, runner, fitted):
        _, split, _ = fitted
        with pytest.raises(ValidationError, match="eligible"):
            calibrate_thresholds(runner.make_monitor(), [])


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
class TestMitigationLoop:
    def test_acceptance_group_shift_promotes_with_recovery(self, fitted):
        _, split, _ = fitted
        controller = make_controller(fitted)
        with controller:
            outcome = ReplayHarness(controller).replay(
                drift_stream(split), label="group_shift"
            )
            events = [t.event for t in controller.transitions]
            assert events == ["alarm", "refit", "shadow_start", "promote"]
            assert controller.n_promotions == 1
            promote = controller.transitions[-1].details
        # DI* recovery without balanced-accuracy regression, straight from
        # the promotion verdict.
        assert promote["shadow_di_star"] is not None
        if promote["healthy_di_star"] is not None:
            assert promote["shadow_di_star"] >= promote["healthy_di_star"] - DI_TOLERANCE
        if (
            promote["healthy_balanced_accuracy"] is not None
            and promote["shadow_balanced_accuracy"] is not None
        ):
            assert (
                promote["shadow_balanced_accuracy"]
                >= promote["healthy_balanced_accuracy"] - ACCURACY_TOLERANCE
            )
        assert outcome.detected
        assert outcome.mitigation["promoted"] is True
        assert outcome.recovered
        assert outcome.time_to_recovery_steps > 0
        assert outcome.time_to_recovery_records > 0
        assert outcome.fairness_regret >= 0.0

    def test_control_replay_is_promotion_free(self, fitted):
        _, split, _ = fitted
        with make_controller(fitted) as controller:
            outcome = ReplayHarness(controller).replay(
                drift_stream(split, scenario="none"), label="control"
            )
            assert controller.transitions == []
            assert controller.n_promotions == 0
        assert not outcome.detected
        assert outcome.mitigation["n_transitions"] == 0

    def test_audit_trail_replays_bit_identically(self, fitted, tmp_path):
        _, split, _ = fitted

        def run():
            with make_controller(fitted) as controller:
                ReplayHarness(controller).replay(drift_stream(split))
                return controller.transitions

        first, second = run(), run()
        # Determinism: two identical replays make identical decisions.
        assert first == second
        path = save_audit_trail(first, tmp_path / "trail")
        assert load_audit_trail(path) == first

    def test_suite_runner_mitigate_flag(self, fitted, runner):
        _, split, _ = fitted
        outcome = runner.replay_scenario(
            make_scenario("group_shift"),
            split.deploy,
            label="group_shift",
            n_steps=40,
            batch_size=100,
            seed=SEED,
            mitigate=True,
        )
        assert outcome.mitigation["promoted"] is True
        assert outcome.recovered
        steps_with_events = [s for s in outcome.steps if s.mitigation]
        assert steps_with_events, "transition events must land on step records"

    def test_controller_requires_a_monitored_service(self, fitted):
        _, _, result = fitted
        with pytest.raises(ValidationError, match="monitor"):
            MitigationController(PredictionService(result.model))

    def test_parameter_sanity_is_validated(self, fitted):
        with pytest.raises(ValidationError):
            make_controller(fitted, min_shadow_steps=10, max_shadow_steps=5)
        with pytest.raises(ValidationError):
            make_controller(fitted, min_refit_rows=0)
        with pytest.raises(ValidationError, match="BUFFER_ROWS"):
            make_controller(fitted, min_refit_rows=BUFFER_ROWS + 1)


class TestCliMitigate:
    def test_run_mitigate_emits_promotion_and_audit(self, fitted, tmp_path, capsys):
        import json

        from repro.serving import save_artifact
        from repro.simulate.cli import main as simulate_main

        _, _, result = fitted
        artifact = save_artifact(result, tmp_path / "artifact")
        code = simulate_main(
            [
                "run",
                "--scenario", "group_shift",
                "--dataset", "meps",
                "--artifact", str(artifact),
                "--size-factor", str(SIZE_FACTOR),
                "--seed", str(SEED),
                "--steps", "40",
                "--stream-batch", "100",
                "--window", "600",
                "--no-density",
                "--mitigate",
                "--audit-out", str(tmp_path / "trail"),
                "--min-refit-rows", "300",
                "--min-shadow-steps", "3",
                "--max-shadow-steps", "15",
                "--cooldown-steps", "4",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        mitigation = payload["result"]["mitigation"]
        assert mitigation["promoted"] is True
        assert payload["result"]["recovered"] is True
        assert payload["audit_out"] == str(tmp_path / "trail")
        trail = load_audit_trail(tmp_path / "trail")
        assert [t.event for t in trail] == ["alarm", "refit", "shadow_start", "promote"]

    def test_calibrate_command(self, fitted, tmp_path, capsys):
        import json

        from repro.serving import save_artifact
        from repro.simulate.cli import main as simulate_main

        _, _, result = fitted
        artifact = save_artifact(result, tmp_path / "artifact")
        code = simulate_main(
            [
                "calibrate",
                "--dataset", "meps",
                "--artifact", str(artifact),
                "--size-factor", str(SIZE_FACTOR),
                "--seed", str(SEED),
                "--steps", "30",
                "--stream-batch", "100",
                "--window", "600",
                "--no-density",
                "--target-far", "0.05",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        calibration = payload["calibration"]
        assert calibration["empirical_false_alarm_rate"] <= 0.05
        MonitorThresholds.from_dict(calibration["thresholds"])
