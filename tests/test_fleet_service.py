"""Fleet front-end and shard-worker tests.

Covers the :class:`FleetService` dispatch/aggregation contract (round-robin
determinism, merged monitor == union stream and never stale after a request
completes, stats summed, one snapshot per shard per report), the
process-backed workers (mmap cold start, snapshot over the pipe, error and
lifecycle handling), and the ``repro-fleet`` CLI surface.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core import profile_partitions
from repro.datasets import make_drifted_groups, split_dataset
from repro.exceptions import FleetError, ValidationError
from repro.fleet import (
    FleetService,
    InlineShardWorker,
    ProcessShardWorker,
    ShardSnapshot,
)
from repro.fleet.cli import main as fleet_main
from repro.interventions import FairnessPipeline
from repro.serving import FairnessMonitor, MonitorThresholds, PredictionService, save_artifact

SPLIT = split_dataset(
    make_drifted_groups(
        n_majority=500, n_minority=200, n_features=4, name="fleet-syn", random_state=21
    ),
    random_state=21,
)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    result = FairnessPipeline(
        "confair", dataset=SPLIT, intervention_params={"alpha_u": 1.0}, seed=21
    ).run()
    artifact = save_artifact(result, tmp_path_factory.mktemp("artifact") / "fleet-model")
    return result, artifact


def make_monitor() -> FairnessMonitor:
    monitor = FairnessMonitor(
        window_size=400,
        profile=profile_partitions(SPLIT.train),
        thresholds=MonitorThresholds(min_samples=30),
    )
    monitor.set_baselines(violation=SPLIT.train.X, group_fraction=SPLIT.train.group)
    return monitor


def make_inline_worker(result, shard_id=0) -> InlineShardWorker:
    return InlineShardWorker(
        PredictionService(result.model, monitor=make_monitor()), shard_id=shard_id
    )


def make_fleet(result, n_shards) -> FleetService:
    return FleetService([make_inline_worker(result, shard_id=i) for i in range(n_shards)])


class ProbedWorker:
    """A shard worker wrapper that counts ``snapshot`` calls and, while
    ``hold`` is set, signals ``entered`` and waits for ``release`` before the
    shard serves a request."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.n_snapshots = 0
        self.hold = None

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def predict(self, *args, **kwargs):
        if self.hold is not None:
            entered, release = self.hold
            entered.set()
            release.wait(timeout=30)
        return self.inner.predict(*args, **kwargs)

    def snapshot(self):
        self.n_snapshots += 1
        return self.inner.snapshot()


def requests(n, *, rows=40, seed=3):
    rng = np.random.default_rng(seed)
    deploy = SPLIT.deploy
    for _ in range(n):
        take = rng.integers(0, deploy.n_samples, rows)
        yield deploy.X[take], deploy.group[take], deploy.y[take]


class TestFleetDispatch:
    def test_round_robin_spreads_requests_evenly(self, fitted):
        result, _ = fitted
        with make_fleet(result, 3) as fleet:
            for X, group, y in requests(6):
                fleet.predict(X, group, y_true=y)
            counts = [s.stats.n_requests for s in fleet.snapshots()]
        assert counts == [2, 2, 2]

    def test_predictions_match_single_service(self, fitted):
        result, _ = fitted
        single = PredictionService(result.model)
        with make_fleet(result, 4) as fleet:
            for X, group, y in requests(5):
                np.testing.assert_array_equal(
                    fleet.predict(X, group, y_true=y), single.predict(X)
                )

    def test_predict_async_inside_a_loop(self, fitted):
        result, _ = fitted

        async def drive(fleet):
            X = SPLIT.deploy.X[:30]
            parts = await asyncio.gather(
                fleet.predict_async(X), fleet.predict_async(X)
            )
            return parts

        single = PredictionService(result.model)
        with make_fleet(result, 2) as fleet:
            first, second = asyncio.run(drive(fleet))
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, single.predict(SPLIT.deploy.X[:30]))

    def test_invalid_config_rejected(self, fitted):
        with pytest.raises(FleetError, match="at least one"):
            FleetService([])

    def test_closed_fleet_rejects_requests(self, fitted):
        result, _ = fitted
        fleet = make_fleet(result, 2)
        fleet.close()
        with pytest.raises(ValidationError, match="closed"):
            fleet.predict(SPLIT.deploy.X[:5])


class TestFleetAggregation:
    def test_merged_monitor_equals_union_stream(self, fitted):
        result, _ = fitted
        union = make_monitor()
        single = PredictionService(result.model, monitor=union)
        with make_fleet(result, 3) as fleet:
            for X, group, y in requests(7):
                fleet.predict(X, group, y_true=y)
                single.predict(X, group, y_true=y)
            merged = fleet.monitor
        assert merged.n_seen == union.n_seen
        assert merged.windowed_summary() == union.windowed_summary()
        assert merged.drift_status() == union.drift_status()
        assert merged.group_status() == union.group_status()
        state_a, state_b = merged.state_dict(), union.state_dict()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)

    def test_stats_sum_across_shards(self, fitted):
        result, _ = fitted
        with make_fleet(result, 2) as fleet:
            for X, group, y in requests(4):
                fleet.predict(X, group, y_true=y)
            assert fleet.stats.n_records == 160
            assert fleet.stats.n_requests == 4
            assert fleet.n_requests == 4

    def test_monitor_is_fresh_after_an_overlapping_read(self, fitted):
        """A monitor read while a request is in flight must not be served
        from the cache once that request has completed."""
        result, _ = fitted
        worker = ProbedWorker(make_inline_worker(result))
        with FleetService([worker]) as fleet:
            fleet.predict(SPLIT.deploy.X[:10])
            worker.hold = (threading.Event(), threading.Event())
            entered, release = worker.hold
            thread = threading.Thread(target=fleet.predict, args=(SPLIT.deploy.X[10:20],))
            thread.start()
            assert entered.wait(timeout=30)
            assert fleet.monitor.n_seen == 10  # request 2 not yet served
            release.set()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert fleet.monitor.n_seen == 20

    def test_report_snapshots_each_shard_once(self, fitted):
        result, _ = fitted
        workers = [ProbedWorker(make_inline_worker(result, shard_id=i)) for i in range(2)]
        with FleetService(workers) as fleet:
            for X, group, y in requests(5):
                fleet.predict(X, group, y_true=y)
            for _ in range(2):  # a cache miss, then a cache hit
                for worker in workers:
                    worker.n_snapshots = 0
                report = fleet.fleet_report()
                assert [worker.n_snapshots for worker in workers] == [1, 1]
            assert report["windowed"] == fleet.monitor.windowed_summary()
        assert report["n_shards"] == 2
        assert report["n_records"] == 200
        assert [s["shard_id"] for s in report["shards"]] == [0, 1]

    def test_monitorless_fleet_reports_without_window(self, fitted):
        result, _ = fitted
        workers = [
            InlineShardWorker(PredictionService(result.model), shard_id=i)
            for i in range(2)
        ]
        with FleetService(workers) as fleet:
            fleet.predict(SPLIT.deploy.X[:10])
            assert fleet.monitor is None
            assert "windowed" not in fleet.fleet_report()


class TestProcessWorkers:
    def test_process_fleet_serves_and_merges(self, fitted, tmp_path):
        result, artifact = fitted
        monitor_path = save_artifact(make_monitor(), tmp_path / "monitor")
        workers = [
            ProcessShardWorker(artifact, shard_id=i, monitor_path=monitor_path)
            for i in range(2)
        ]
        single = PredictionService(result.model)
        with FleetService(workers) as fleet:
            for X, group, y in requests(4):
                np.testing.assert_array_equal(
                    fleet.predict(X, group, y_true=y), single.predict(X)
                )
            snapshot = fleet.snapshots()[0]
            assert isinstance(snapshot, ShardSnapshot)
            assert snapshot.monitor_state is not None
            assert fleet.monitor.n_seen == 160
            assert all(s.cold_start_seconds > 0 for s in fleet.snapshots())

    def test_worker_survives_a_bad_request(self, fitted):
        _, artifact = fitted
        worker = ProcessShardWorker(artifact, shard_id=0)
        try:
            with pytest.raises(FleetError, match="failed"):
                worker.predict(np.full((4, SPLIT.deploy.n_features), np.nan))
            predictions = worker.predict(SPLIT.deploy.X[:8])
            assert predictions.shape == (8,)
        finally:
            worker.close()

    def test_missing_artifact_fails_the_handshake(self, tmp_path):
        with pytest.raises(FleetError, match="failed to start"):
            ProcessShardWorker(tmp_path / "nowhere", start_timeout=60.0)

    def test_closed_worker_rejects_requests(self, fitted):
        _, artifact = fitted
        worker = ProcessShardWorker(artifact, shard_id=0)
        worker.close()
        worker.close()  # idempotent
        with pytest.raises(FleetError, match="closed"):
            worker.predict(SPLIT.deploy.X[:4])


class TestFleetCli:
    def test_replay_asserts_equivalence(self, capsys):
        code = fleet_main(
            [
                "replay",
                "--dataset",
                "meps",
                "--size-factor",
                "0.02",
                "--seed",
                "5",
                "--shards",
                "3",
                "--steps",
                "12",
                "--stream-batch",
                "60",
                "--window",
                "600",
                "--no-density",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["matches"] is True
        assert payload["differences"] == []
        assert payload["shards"] == 3

    def test_serve_and_report_round_trip(self, tmp_path, capsys):
        report_path = tmp_path / "fleet-report.json"
        code = fleet_main(
            [
                "serve",
                "--dataset",
                "meps",
                "--size-factor",
                "0.02",
                "--seed",
                "5",
                "--shards",
                "2",
                "--requests",
                "6",
                "--request-rows",
                "25",
                "--window",
                "600",
                "--no-density",
                "--out-report",
                str(report_path),
            ]
        )
        served = json.loads(capsys.readouterr().out)
        assert code == 0
        assert served["n_requests"] == 6
        assert served["n_records"] == 150
        assert [s["n_requests"] for s in served["shards"]] == [3, 3]

        assert fleet_main(["report", "--input", str(report_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_shards"] == 2
        assert summary["n_records"] == 150

    def test_report_rejects_missing_file(self, tmp_path, capsys):
        assert fleet_main(["report", "--input", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err
