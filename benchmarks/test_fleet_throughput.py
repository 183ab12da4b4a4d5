"""Benchmark: serving throughput of the sharded fleet front-end.

Measures records/second for 10k rows pushed through a 4-shard
:class:`~repro.fleet.FleetService` (inline workers, round-robin dispatch,
sequence stamping, per-request monitor updates) — the full fleet hot path:
shard selection and shard-local serving, both on the caller's thread.  The
merged-monitor aggregation is benchmarked separately so the regression gate
can tell the request path from the reporting path.  Shape assertions: every shard serves
an equal request share and the merged monitor saw the union stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FairnessPipeline
from repro.datasets import load_dataset, split_dataset
from repro.fleet import FleetService, InlineShardWorker
from repro.serving import FairnessMonitor, PredictionService
from repro.serving.cli import find_profile

N_SHARDS = 4
N_REQUESTS = 48
REQUEST_ROWS = 200
N_ROWS = N_REQUESTS * REQUEST_ROWS


@pytest.fixture(scope="module")
def fleet_setup():
    result = FairnessPipeline(
        "confair", learner="lr", dataset="meps", size_factor=0.05, seed=7
    ).run()
    data = load_dataset("meps", size_factor=0.05, random_state=7)
    split = split_dataset(data, random_state=7)
    profile = find_profile(result)

    def make_monitor():
        monitor = FairnessMonitor(window_size=2000, profile=profile)
        monitor.set_baselines(violation=split.train.X, group_fraction=split.train.group)
        return monitor

    rng = np.random.default_rng(7)
    rows = rng.integers(0, split.deploy.n_samples, size=(N_REQUESTS, REQUEST_ROWS))
    batches = [
        (split.deploy.X[take], split.deploy.group[take], split.deploy.y[take])
        for take in rows
    ]
    return result.model, make_monitor, batches


def test_fleet_throughput_10k_rows(benchmark, fleet_setup):
    model, make_monitor, batches = fleet_setup

    def serve():
        workers = [
            InlineShardWorker(
                PredictionService(model, monitor=make_monitor()), shard_id=i
            )
            for i in range(N_SHARDS)
        ]
        with FleetService(workers) as fleet:
            for X, group, y in batches:
                fleet.predict(X, group, y_true=y)
            return fleet.stats.n_records, [s.stats.n_requests for s in fleet.snapshots()]

    n_records, per_shard = benchmark(serve)

    assert n_records == N_ROWS
    assert per_shard == [N_REQUESTS // N_SHARDS] * N_SHARDS

    records_per_second = N_ROWS / benchmark.stats.stats.mean
    benchmark.extra_info["records_per_second"] = round(records_per_second, 1)
    benchmark.extra_info["n_rows"] = N_ROWS
    benchmark.extra_info["n_shards"] = N_SHARDS
    print(f"\nfleet throughput: {records_per_second:,.0f} records/s")


def test_fleet_monitor_merge_report(benchmark, fleet_setup):
    model, make_monitor, batches = fleet_setup
    workers = [
        InlineShardWorker(PredictionService(model, monitor=make_monitor()), shard_id=i)
        for i in range(N_SHARDS)
    ]
    with FleetService(workers) as fleet:
        for X, group, y in batches:
            fleet.predict(X, group, y_true=y)

        def report():
            fleet._monitor_cache = None  # force a fresh merge every round
            return fleet.fleet_report()

        outcome = benchmark(report)
        assert outcome["n_records"] == N_ROWS
        assert outcome["windowed"]["n_window"] == fleet.monitor.n_window
        assert outcome["windowed"]["n_seen"] == N_ROWS
    benchmark.extra_info["n_shards"] = N_SHARDS
