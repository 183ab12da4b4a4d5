"""Sharded-replay equivalence — the fleet's acceptance criterion.

An 8-way sharded drift replay (round-robin dispatch, sequence-stamped
batches, monitors merged per step) must be **bit-identical** to the
single-service replay of the same stream: same alarms at the same steps,
same detection latency, same windowed DI* trajectory, same scored verdict —
everything in ``ReplayResult.to_dict(include_steps=True)`` except wall-clock
throughput.
"""

from __future__ import annotations

import pytest

from repro.datasets import make_drifted_groups, split_dataset
from repro.fleet import compare_sharded_replay, diff_replay_results
from repro.fleet.service import FleetService
from repro.interventions import FairnessPipeline
from repro.serving import MonitorThresholds, PredictionService
from repro.serving.cli import find_profile
from repro.simulate import SuiteRunner, make_scenario
from repro.simulate.replay import ReplayHarness
from repro.simulate.stream import TrafficStream
from repro.telemetry import get_event_log

SPLIT = split_dataset(
    make_drifted_groups(
        n_majority=900, n_minority=380, n_features=4, name="fleet-replay", random_state=33
    ),
    random_state=33,
)


@pytest.fixture(scope="module")
def runner():
    result = FairnessPipeline(
        "confair", dataset=SPLIT, intervention_params={"alpha_u": 1.0}, seed=33
    ).run()
    return SuiteRunner(
        result.model,
        SPLIT.train,
        profile=find_profile(result),
        calibration=SPLIT.validation,
        window_size=900,
        thresholds=MonitorThresholds(min_samples=40),
    )


class TestShardedReplayEquivalence:
    def test_eight_shard_drift_replay_is_bit_identical(self, runner):
        """The acceptance criterion: 8 shards, drift scenario, exact match."""
        comparison = compare_sharded_replay(
            runner,
            make_scenario("group_shift"),
            SPLIT.deploy,
            shards=8,
            label="group_shift",
            n_steps=24,
            batch_size=90,
            seed=33,
        )
        assert comparison.differences == []
        assert comparison.matches
        # The replay must be a meaningful one: drift injected and detected.
        assert comparison.single.detected and comparison.fleet.detected
        assert comparison.single.n_steps == 24
        assert comparison.fleet.steps == comparison.single.steps

    def test_control_scenario_also_matches(self, runner):
        comparison = compare_sharded_replay(
            runner,
            make_scenario("none"),
            SPLIT.deploy,
            shards=4,
            label="control",
            n_steps=12,
            batch_size=80,
            seed=33,
        )
        assert comparison.matches
        assert not comparison.fleet.detected
        assert comparison.fleet.n_false_alarms == comparison.single.n_false_alarms

    def test_covariate_shift_matches_across_shard_counts(self, runner):
        for shards in (2, 5):
            comparison = compare_sharded_replay(
                runner,
                make_scenario("covariate_shift"),
                SPLIT.deploy,
                shards=shards,
                n_steps=14,
                batch_size=80,
                seed=33,
            )
            assert comparison.matches, comparison.differences

    def test_runner_builds_a_fleet_for_sharded_replays(self, runner):
        service = runner.make_service(shards=3)
        try:
            assert isinstance(service, FleetService)
            assert len(service.workers) == 3
        finally:
            service.close()
        assert isinstance(runner.make_service(), PredictionService)
        assert isinstance(runner.make_service(shards=1), PredictionService)

    def test_diff_reports_where_results_diverge(self, runner):
        scenario = make_scenario("none")
        a = runner.replay_scenario(scenario, SPLIT.deploy, n_steps=6, batch_size=50, seed=33)
        b = runner.replay_scenario(scenario, SPLIT.deploy, n_steps=8, batch_size=50, seed=33)
        differences = diff_replay_results(a, b)
        assert differences
        assert any("n_steps" in d for d in differences)
        assert diff_replay_results(a, a) == []

    def test_comparison_to_dict_shape(self, runner):
        comparison = compare_sharded_replay(
            runner,
            make_scenario("none"),
            SPLIT.deploy,
            shards=2,
            n_steps=6,
            batch_size=50,
            seed=33,
        )
        payload = comparison.to_dict()
        assert payload["matches"] is True
        assert payload["shards"] == 2
        assert payload["single"]["n_steps"] == payload["fleet"]["n_steps"] == 6


class TestFlightRecorderEquivalence:
    """The event-log acceptance criterion: sharding is invisible to forensics."""

    def _stream(self):
        return TrafficStream(
            SPLIT.deploy,
            make_scenario("group_shift"),
            n_steps=24,
            batch_size=90,
            random_state=33,
        )

    def test_eight_shard_event_log_merges_bit_identically(self, runner):
        """8-shard drift replay: merged event log == single-service event log.

        Request events land in shard-private logs, alarm edges and channel
        snapshots in the frontend log (the merged monitor is only observed
        there); ``events_report()`` folds them back into exactly the stream
        one process would have recorded.
        """
        log = get_event_log()
        saved = log.enabled
        log.reset().enable()
        try:
            fleet = runner.make_service(shards=8)
            with fleet:
                fleet_result = ReplayHarness(fleet).replay(
                    self._stream(), label="group_shift"
                )
                # Snapshotted inside the `with`: shard logs die with the fleet.
                fleet_state = fleet.events_report()["merged"]["state"]

            log.reset()
            single_result = ReplayHarness(runner.make_service()).replay(
                self._stream(), label="group_shift"
            )
            single_state = log.state_dict()
        finally:
            log.reset()
            log.enabled = saved

        # A meaningful replay: the drift fired and forensics recorded it.
        assert fleet_result.detected and single_result.detected
        kinds = {record["kind"] for record in single_state["records"]}
        assert {"request", "alarm_edge", "channel_snapshot"} <= kinds
        assert fleet_state["records"] == single_state["records"]
        assert fleet_state["n_emitted"] == single_state["n_emitted"]
        assert fleet_state["evicted_through"] is None

    def test_channel_snapshot_attributes_the_drifted_channel(self, runner):
        log = get_event_log()
        saved = log.enabled
        log.reset().enable()
        try:
            ReplayHarness(runner.make_service()).replay(
                self._stream(), label="group_shift"
            )
            snapshots = log.records(kind="channel_snapshot")
        finally:
            log.reset()
            log.enabled = saved
        assert snapshots
        report = snapshots[0]["attributes"]["report"]
        assert "group" in report["alarmed"]
        channel = report["channels"]["group"]
        assert channel["alarm"] is True
        assert channel["statistic"] is not None and channel["threshold"] is not None
