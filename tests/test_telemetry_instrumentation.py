"""Telemetry wired through the serving, fit, fleet, and replay hot paths.

Integration-level checks of the observability contract:

* a :class:`PredictionService` records request/latency/batch metrics into
  its registry — and records *nothing* while telemetry is off;
* fit paths (``FairnessPipeline.run``/``sweep_degrees``,
  ``profile_partitions``) leave nested spans behind;
* fleet shards record into private registries that merge into one fleet
  view — exactly equal to a single service observing the union stream —
  and ``fleet_report()`` surfaces cold starts, mmap outcomes, and latency
  quantiles per shard;
* a dead worker process turns into a :class:`FleetError` carrying the
  shard id, process exit code, and served-sequence forensics;
* under a multi-threaded request hammer every request is served once and
  stamped with its own sequence, so the merged window holds each stamp
  exactly once;
* a 4-shard replay stays bit-identical to the single service with
  telemetry enabled (the spans never feed the verdict).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.core import profile_partitions
from repro.datasets import make_drifted_groups, split_dataset
from repro.exceptions import FleetError
from repro.fleet import FleetService, InlineShardWorker, ProcessShardWorker
from repro.fleet.replay import compare_sharded_replay
from repro.interventions import FairnessPipeline
from repro.serving import FairnessMonitor, MonitorThresholds, PredictionService, save_artifact
from repro.simulate import ReplayHarness, SuiteRunner, TrafficStream, make_scenario
from repro.telemetry import MetricsRegistry

SPLIT = split_dataset(
    make_drifted_groups(
        n_majority=500, n_minority=200, n_features=4, name="telemetry-syn", random_state=11
    ),
    random_state=11,
)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    result = FairnessPipeline(
        "confair", dataset=SPLIT, intervention_params={"alpha_u": 1.0}, seed=11
    ).run()
    artifact = save_artifact(result, tmp_path_factory.mktemp("artifact") / "telemetry-model")
    return result, artifact


@pytest.fixture()
def default_registry():
    """Enable the process-wide registry for one test; restore and clear after."""
    registry = telemetry.enable()
    registry.reset()
    try:
        yield registry
    finally:
        registry.disable()
        registry.reset()


def make_monitor(window_size=400) -> FairnessMonitor:
    monitor = FairnessMonitor(
        window_size=window_size, thresholds=MonitorThresholds(min_samples=30)
    )
    monitor.set_baselines(group_fraction=SPLIT.train.group)
    return monitor


class TestServiceInstrumentation:
    def test_predict_records_into_private_registry(self, fitted):
        result, _ = fitted
        registry = MetricsRegistry(enabled=True)
        service = PredictionService(result.model, batch_size=32, telemetry=registry)
        service.predict(SPLIT.deploy.X[:100])
        service.predict(SPLIT.deploy.X[:20])
        state = registry.state_dict()
        assert state["counters"]["serving.requests_total"] == 2
        assert state["counters"]["serving.records_total"] == 120
        latency = state["histograms"]["serving.request_latency_seconds"]
        assert sum(latency["counts"]) == 2
        # 100 rows at batch_size=32 -> 4 micro-batches, plus 1 for the 20.
        batches = state["histograms"]["serving.batch_rows"]
        assert sum(batches["counts"]) == 5

    def test_disabled_service_records_nothing(self, fitted):
        result, _ = fitted
        registry = MetricsRegistry()  # disabled
        service = PredictionService(result.model, telemetry=registry)
        service.predict(SPLIT.deploy.X[:50])
        state = registry.state_dict()
        assert state["counters"]["serving.requests_total"] == 0
        assert sum(state["histograms"]["serving.request_latency_seconds"]["counts"]) == 0

    def test_pooled_predict_records_queue_wait(self, fitted):
        result, _ = fitted
        registry = MetricsRegistry(enabled=True)
        service = PredictionService(
            result.model, batch_size=16, max_workers=2, telemetry=registry
        )
        service.predict(SPLIT.deploy.X[:64])
        wait = registry.state_dict()["histograms"]["serving.queue_wait_seconds"]
        assert sum(wait["counts"]) == 4


class TestFitSpans:
    def test_pipeline_run_leaves_nested_spans(self, default_registry):
        FairnessPipeline(
            "confair", dataset=SPLIT, intervention_params={"alpha_u": 1.0}, seed=11
        ).run()
        trace = default_registry.trace()
        names = [record["name"] for record in trace]
        for expected in (
            "pipeline.run",
            "pipeline.fit_intervention",
            "pipeline.make_model",
            "pipeline.evaluate",
        ):
            assert expected in names, names
        run = next(r for r in trace if r["name"] == "pipeline.run")
        fit = next(r for r in trace if r["name"] == "pipeline.fit_intervention")
        assert fit["parent_id"] == run["span_id"]
        assert run["attributes"]["method"] == "confair"

    def test_profile_partitions_span_records_sizes(self, default_registry):
        profile_partitions(SPLIT.train)
        spans = [r for r in default_registry.trace() if r["name"] == "fit.profile_partitions"]
        assert len(spans) == 1
        assert spans[0]["attributes"]["n_partitions"] >= 1

    def test_sweep_degrees_spans_cover_every_degree(self, default_registry):
        pipeline = FairnessPipeline(
            "confair", dataset=SPLIT, intervention_params={"alpha_u": 1.0}, seed=11
        )
        pipeline.sweep_degrees(degrees=(0.0, 1.0))
        trace = default_registry.trace()
        points = [r for r in trace if r["name"] == "pipeline.sweep_point"]
        assert sorted(r["attributes"]["degree"] for r in points) == [0.0, 1.0]
        sweep = next(r for r in trace if r["name"] == "pipeline.sweep_degrees")
        assert sweep["attributes"]["n_degrees"] == 2


class TestFleetTelemetry:
    def make_fleet(self, result, n_shards, **kwargs) -> FleetService:
        workers = [
            InlineShardWorker(
                PredictionService(
                    result.model,
                    monitor=make_monitor(),
                    telemetry=MetricsRegistry(enabled=True),
                ),
                shard_id=i,
            )
            for i in range(n_shards)
        ]
        kwargs.setdefault("telemetry", MetricsRegistry(enabled=True))
        return FleetService(workers, **kwargs)

    def drive(self, fleet, n_requests=6, rows=40):
        deploy = SPLIT.deploy
        for i in range(n_requests):
            take = np.arange(i * rows, (i + 1) * rows) % deploy.n_samples
            fleet.predict(deploy.X[take], deploy.group[take], y_true=deploy.y[take])

    def test_merged_shard_histograms_equal_union_stream(self, fitted):
        result, _ = fitted
        union = MetricsRegistry(enabled=True)
        single = PredictionService(result.model, telemetry=union)
        with self.make_fleet(result, 3) as fleet:
            deploy = SPLIT.deploy
            for i in range(6):
                take = np.arange(i * 40, (i + 1) * 40) % deploy.n_samples
                fleet.predict(deploy.X[take])
                single.predict(deploy.X[take])
            states = [s.telemetry_state for s in fleet.snapshots()]
        merged = MetricsRegistry.merge_state_dicts(states)
        union_state = union.state_dict()
        # Counters and batch-size histograms are deterministic and must match
        # the single service exactly; latencies share layout but not values.
        assert merged["counters"] == union_state["counters"]
        assert (
            merged["histograms"]["serving.batch_rows"]
            == union_state["histograms"]["serving.batch_rows"]
        )
        lat = merged["histograms"]["serving.request_latency_seconds"]
        assert sum(lat["counts"]) == 6

    def test_fleet_report_carries_quantiles_and_merged_view(self, fitted):
        result, _ = fitted
        with self.make_fleet(result, 2) as fleet:
            self.drive(fleet)
            report = fleet.fleet_report()
        assert report["telemetry"]["n_reporting_shards"] == 2
        merged = report["telemetry"]["merged"]
        assert merged["counters"]["serving.requests_total"] == 6
        for shard in report["shards"]:
            assert "cold_start_seconds" in shard
            assert shard["latency_quantiles"]["p99"] is not None

    def test_telemetry_report_payload_shape(self, fitted):
        result, _ = fitted
        with self.make_fleet(result, 2) as fleet:
            self.drive(fleet)
            payload = fleet.telemetry_report()
        assert payload["telemetry_version"] == 1
        assert payload["frontend"]["state"]["counters"]["fleet.requests_total"] == 6
        assert len(payload["shards"]) == 2
        assert (
            payload["merged"]["state"]["counters"]["serving.records_total"] == 240
        )

    def test_default_registry_shards_do_not_report_state(self, fitted):
        """Shards on the process-default registry skip telemetry_state: the
        front-end already owns that registry, so exporting it per shard
        would double count on merge."""
        result, _ = fitted
        registry = telemetry.enable()
        registry.reset()
        try:
            worker = InlineShardWorker(PredictionService(result.model), shard_id=0)
            worker.predict(SPLIT.deploy.X[:10])
            assert worker.snapshot().telemetry_state is None
        finally:
            registry.disable()
            registry.reset()

    def test_process_worker_snapshot_carries_telemetry(self, fitted, tmp_path):
        _, artifact = fitted
        worker = ProcessShardWorker(
            artifact, shard_id=0, mmap_mode="r", telemetry=True
        )
        try:
            worker.predict(SPLIT.deploy.X[:30])
            snapshot = worker.snapshot()
            assert snapshot.mmap_cache in ("hit", "miss")
            assert snapshot.cold_start_seconds > 0
            state = snapshot.telemetry_state
            assert state["counters"]["serving.records_total"] == 30
            assert sum(state["histograms"]["serving.request_latency_seconds"]["counts"]) == 1
        finally:
            worker.close()

    def test_dead_worker_error_names_shard_exit_code_and_sequences(self, fitted):
        _, artifact = fitted
        worker = ProcessShardWorker(artifact, shard_id=3)
        try:
            worker.predict(SPLIT.deploy.X[:8], sequence=41)
            worker._process.terminate()
            worker._process.join(timeout=10.0)
            with pytest.raises(FleetError) as excinfo:
                worker.predict(SPLIT.deploy.X[:8], sequence=42)
            message = str(excinfo.value)
            assert "shard 3" in message
            assert "exit code" in message
            assert "42" in message  # the in-flight sequence
            assert "41..41" in message  # the served range
        finally:
            worker.close()

    def test_threaded_hammer_stamps_every_request(self, fitted):
        """8 caller threads x 4 requests on 2 shards: each request is served
        once and stamped once, so the merged window holds sequences 0..31."""
        result, _ = fitted
        n_threads, per_thread, rows = 8, 4, 25
        n_total = n_threads * per_thread
        workers = [
            InlineShardWorker(
                # Wide enough that the merged window retains every request.
                PredictionService(result.model, monitor=make_monitor(window_size=1000)),
                shard_id=i,
            )
            for i in range(2)
        ]
        with FleetService(workers, telemetry=MetricsRegistry(enabled=True)) as fleet:
            deploy = SPLIT.deploy
            barrier = threading.Barrier(n_threads)

            def hammer():
                barrier.wait(timeout=10)
                for _ in range(per_thread):
                    fleet.predict(deploy.X[:rows])

            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the callers finely
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            merged = fleet.monitor
            assert fleet.n_requests == n_total
            assert [s.stats.n_requests for s in fleet.snapshots()] == [16, 16]
        assert merged.n_seen == n_total * rows
        assert list(merged.state_dict()["chunk_sequences_"]) == list(range(n_total))


class TestReplayTelemetry:
    def test_replay_leaves_step_spans(self, fitted, default_registry):
        result, _ = fitted
        service = PredictionService(result.model, monitor=make_monitor())
        stream = TrafficStream(
            SPLIT.deploy, make_scenario("none"), n_steps=4, batch_size=30, random_state=3
        )
        ReplayHarness(service).replay(stream, label="control")
        trace = default_registry.trace()
        steps = [r for r in trace if r["name"] == "replay.step"]
        scenario = [r for r in trace if r["name"] == "replay.scenario"]
        assert len(steps) == 4
        assert len(scenario) == 1
        assert all(r["parent_id"] == scenario[0]["span_id"] for r in steps)
        assert steps[0]["attributes"]["rows"] == 30

    def test_sharded_replay_bit_identical_with_telemetry_on(self, fitted, default_registry):
        """The acceptance criterion: telemetry must never perturb the
        4-shard vs single-service replay equivalence."""
        result, _ = fitted
        runner = SuiteRunner(
            result.model,
            SPLIT.train,
            window_size=400,
            thresholds=MonitorThresholds(min_samples=30),
        )
        comparison = compare_sharded_replay(
            runner,
            make_scenario("group_shift"),
            SPLIT.deploy,
            shards=4,
            n_steps=10,
            batch_size=40,
            seed=5,
        )
        assert comparison.matches, comparison.differences
        # And the replay actually recorded: spans from both replays.
        names = {r["name"] for r in default_registry.trace()}
        assert "replay.step" in names
