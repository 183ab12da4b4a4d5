"""Replay-harness and CLI tests — including the PR's acceptance criterion:

an injected group-prevalence shift must be flagged by the monitor while a
no-shift control replay raises no alarm, end-to-end from a saved artifact,
with detection latency / false-alarm rate / throughput reported as JSON.
"""

from __future__ import annotations

import json

import pytest

from repro import FairnessPipeline
from repro.datasets import load_dataset, split_dataset
from repro.density import KernelDensity
from repro.exceptions import SimulationError
from repro.serving import PredictionService, find_profile, save_artifact
from repro.simulate import (
    ReplayHarness,
    SuiteRunner,
    make_scenario,
    make_suite,
)
from repro.simulate.cli import main as simulate_main

SIZE_FACTOR = 0.03
SEED = 11


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A ConFair fit on MEPS, persisted as an artifact, plus its split."""
    result = FairnessPipeline(
        "confair", learner="lr", dataset="meps", size_factor=SIZE_FACTOR, seed=SEED
    ).run()
    artifact = save_artifact(
        result, tmp_path_factory.mktemp("artifact") / "meps-confair"
    )
    data = load_dataset("meps", size_factor=SIZE_FACTOR, random_state=SEED)
    split = split_dataset(data, random_state=SEED)
    return result, artifact, split


@pytest.fixture(scope="module")
def runner(fitted):
    result, _, split = fitted
    kde = KernelDensity(bandwidth="scott", kernel="gaussian").fit(split.train.numeric_X)
    return SuiteRunner(
        result.model,
        split.train,
        profile=find_profile(result),
        density_estimator=kde,
        calibration=split.validation,
        window_size=1500,
    )


class TestReplayHarness:
    def test_group_shift_is_flagged(self, fitted, runner):
        _, _, split = fitted
        outcome = runner.replay_scenario(
            make_scenario("group_shift"),
            split.deploy,
            label="group_shift",
            n_steps=30,
            batch_size=100,
            seed=SEED,
        )
        assert outcome.detected, "the injected group-prevalence shift must be flagged"
        assert "group" in outcome.channel_first_alarm
        assert outcome.first_drift_step is not None
        assert outcome.detection_step >= outcome.first_drift_step
        assert outcome.detection_latency_steps >= 0
        assert outcome.detection_latency_records >= outcome.detection_latency_steps
        assert outcome.n_false_alarms == 0
        assert outcome.records_per_second > 0
        assert outcome.n_records == sum(record.n_rows for record in outcome.steps)

    def test_no_shift_control_raises_no_alarm(self, fitted, runner):
        _, _, split = fitted
        outcome = runner.replay_scenario(
            make_scenario("none"),
            split.deploy,
            label="control",
            n_steps=30,
            batch_size=100,
            seed=SEED,
        )
        assert not outcome.detected
        assert outcome.n_false_alarms == 0
        assert outcome.false_alarm_rate == 0.0
        assert outcome.channel_first_alarm == {}
        assert outcome.n_clean_steps == 30

    def test_covariate_shift_caught_by_density_channel(self, fitted, runner):
        _, _, split = fitted
        outcome = runner.replay_scenario(
            make_scenario("covariate_shift"),
            split.deploy,
            label="covariate_shift",
            n_steps=24,
            batch_size=100,
            seed=SEED,
        )
        assert outcome.detected
        assert "density" in outcome.channel_first_alarm
        assert outcome.n_false_alarms == 0

    def test_result_is_json_ready(self, fitted, runner):
        _, _, split = fitted
        outcome = runner.replay_scenario(
            make_scenario("burst"),
            split.deploy,
            label="burst",
            n_steps=10,
            batch_size=50,
            seed=SEED,
        )
        payload = outcome.to_dict()
        assert "steps" not in payload
        json.dumps(payload)
        traced = outcome.to_dict(include_steps=True)
        assert len(traced["steps"]) == 10
        json.dumps(traced)

    def test_harness_requires_a_monitor(self, fitted):
        result, _, _ = fitted
        with pytest.raises(SimulationError, match="FairnessMonitor"):
            ReplayHarness(PredictionService(result.model))

    def test_replay_is_deterministic(self, fitted, runner):
        _, _, split = fitted
        outcomes = [
            runner.replay_scenario(
                make_scenario("group_shift"),
                split.deploy,
                label="group_shift",
                n_steps=20,
                batch_size=80,
                seed=SEED,
            )
            for _ in range(2)
        ]
        first, second = (
            outcome.to_dict(include_steps=True) for outcome in outcomes
        )
        # Everything except wall-clock throughput must replay identically.
        first.pop("records_per_second")
        second.pop("records_per_second")
        assert first == second


class TestSuites:
    def test_make_suite_builds_labelled_scenarios(self):
        suite = make_suite("default")
        labels = [label for label, _ in suite]
        assert labels[0] == "control"
        assert "group_shift" in labels

    def test_unknown_suite_raises(self):
        with pytest.raises(SimulationError, match="Unknown suite"):
            make_suite("nope")

    def test_build_scenario_spec_forms(self):
        from repro.simulate import Compose, build_scenario, Burst, RampTraffic

        assert isinstance(build_scenario("burst"), Burst)
        parameterized = build_scenario(("burst", {"factor": 2.0}))
        assert isinstance(parameterized, Burst) and parameterized.factor == 2.0
        # Regression: a two-element sequence of plain names is a Compose, not
        # a malformed (name, params) pair.
        pair = build_scenario(("burst", "ramp"))
        assert isinstance(pair, Compose)
        assert [type(s) for s in pair.scenarios] == [Burst, RampTraffic]
        nested = build_scenario((("burst", {}), ("group_shift", {})))
        assert isinstance(nested, Compose)
        with pytest.raises(SimulationError, match="Cannot build"):
            build_scenario(())

    def test_suite_run_control_row_is_clean(self, fitted, runner):
        _, _, split = fitted
        results = runner.run(
            "traffic", split.deploy, n_steps=12, batch_size=60, seed=SEED
        )
        by_label = dict(results)
        assert set(by_label) == {"control", "burst", "flash_crowd", "ramp"}
        assert not by_label["control"].detected
        assert all(outcome.n_false_alarms == 0 for outcome in by_label.values())


class TestCli:
    def run_cli(self, capsys, *argv) -> dict:
        assert simulate_main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def test_acceptance_group_shift_run(self, fitted, capsys):
        """`repro-simulate run --scenario group_shift --dataset meps` end-to-end."""
        _, artifact, _ = fitted
        payload = self.run_cli(
            capsys,
            "run",
            "--scenario", "group_shift",
            "--dataset", "meps",
            "--artifact", str(artifact),
            "--size-factor", str(SIZE_FACTOR),
            "--seed", str(SEED),
            "--steps", "30",
            "--stream-batch", "100",
            "--window", "1500",
        )
        result = payload["result"]
        assert payload["artifact"] == str(artifact)
        assert result["detected"] is True
        assert result["n_false_alarms"] == 0
        assert result["detection_latency_steps"] >= 0
        assert result["detection_latency_records"] > 0
        assert result["false_alarm_rate"] == 0.0
        assert result["records_per_second"] > 0

    def test_acceptance_control_run_raises_no_alarm(self, fitted, capsys):
        _, artifact, _ = fitted
        payload = self.run_cli(
            capsys,
            "run",
            "--scenario", "none",
            "--dataset", "meps",
            "--artifact", str(artifact),
            "--size-factor", str(SIZE_FACTOR),
            "--seed", str(SEED),
            "--steps", "30",
            "--stream-batch", "100",
            "--window", "1500",
        )
        result = payload["result"]
        assert result["detected"] is False
        assert result["n_false_alarms"] == 0
        assert result["channel_first_alarm"] == {}

    def test_run_fits_and_saves_artifact_when_none_given(self, tmp_path, capsys):
        out = tmp_path / "fitted-artifact"
        payload = self.run_cli(
            capsys,
            "run",
            "--scenario", "group_shift",
            "--dataset", "meps",
            "--size-factor", str(SIZE_FACTOR),
            "--seed", str(SEED),
            "--steps", "20",
            "--stream-batch", "80",
            "--window", "600",
            "--out", str(out),
            "--no-density",
        )
        assert payload["artifact"] == str(out)
        assert (out / "manifest.json").is_file()
        assert payload["result"]["detected"] is True

    def test_scenario_params_and_trace(self, fitted, capsys):
        _, artifact, _ = fitted
        payload = self.run_cli(
            capsys,
            "run",
            "--scenario", "group_shift",
            "--scenario-param", "onset=0.25",
            "--dataset", "meps",
            "--artifact", str(artifact),
            "--size-factor", str(SIZE_FACTOR),
            "--seed", str(SEED),
            "--steps", "20",
            "--stream-batch", "80",
            "--trace",
        )
        assert "onset=0.25" in payload["scenario"]
        assert len(payload["result"]["steps"]) == 20

    def test_list_command(self, capsys):
        payload = self.run_cli(capsys, "list")
        assert "group_shift" in payload["scenarios"]
        assert "default" in payload["suites"]

    def test_suite_command(self, fitted, capsys):
        _, artifact, _ = fitted
        payload = self.run_cli(
            capsys,
            "suite",
            "--suite", "traffic",
            "--dataset", "meps",
            "--artifact", str(artifact),
            "--size-factor", str(SIZE_FACTOR),
            "--seed", str(SEED),
            "--steps", "10",
            "--stream-batch", "50",
        )
        assert set(payload["results"]) == {"control", "burst", "flash_crowd", "ramp"}
        assert payload["results"]["control"]["detected"] is False

    def test_unknown_scenario_is_a_clean_error(self, fitted, capsys):
        _, artifact, _ = fitted
        code = simulate_main(
            ["run", "--scenario", "nope", "--artifact", str(artifact),
             "--size-factor", str(SIZE_FACTOR), "--seed", str(SEED)]
        )
        assert code == 2
        assert "Unknown scenario" in capsys.readouterr().err


class TestNJobsForwarding:
    """The CLI ``--n-jobs`` knob reaches the fit and changes nothing else."""

    def test_serve_fit_n_jobs_is_bit_identical(self, tmp_path, capsys):
        from repro.serving.cli import main as serve_main

        common = [
            "fit",
            "--dataset", "meps",
            "--size-factor", str(SIZE_FACTOR),
            "--seed", str(SEED),
        ]
        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        assert serve_main(common + ["--out", str(serial_out)]) == 0
        capsys.readouterr()
        assert serve_main(common + ["--out", str(parallel_out), "--n-jobs", "4"]) == 0
        capsys.readouterr()

        from repro.serving import load_artifact

        data = load_dataset("meps", size_factor=SIZE_FACTOR, random_state=SEED)
        deploy = split_dataset(data, random_state=SEED).deploy
        serial = load_artifact(serial_out)
        parallel = load_artifact(parallel_out)
        assert (
            serial.model.predict(deploy.X) == parallel.model.predict(deploy.X)
        ).all()

    def test_simulate_run_accepts_n_jobs(self, tmp_path, capsys):
        code = simulate_main(
            [
                "run",
                "--scenario", "none",
                "--dataset", "meps",
                "--size-factor", str(SIZE_FACTOR),
                "--seed", str(SEED),
                "--steps", "6",
                "--stream-batch", "50",
                "--window", "600",
                "--no-density",
                "--n-jobs", "2",
                "--out", str(tmp_path / "artifact"),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["result"]["n_steps"] == 6
