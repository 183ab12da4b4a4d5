"""Benchmark: serving throughput of the sharded fleet front-end.

Measures records/second for 10k rows pushed through a 4-shard
:class:`~repro.fleet.FleetService` (inline workers, round-robin dispatch,
sequence stamping, shard-side scoring and front-end commits) — the full
fleet hot path: shard selection, shard-local serving and the commit, all on
the caller's thread.  The fleet report and a status read of the front-end
window are benchmarked separately so the regression gate can tell the
request path from the reporting and reading paths.  Shape assertions: every
shard serves an equal request share and the fleet window saw the union
stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FairnessPipeline
from repro.datasets import load_dataset, split_dataset
from repro.density import KernelDensity
from repro.fairness import StreamCounts
from repro.fleet import FleetService, InlineShardWorker
from repro.serving import FairnessMonitor, MonitorThresholds, PredictionService, find_profile
from repro.serving.monitor import MonitorChunk

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
    """``fleet_report()``: one snapshot per shard plus the front-end window's
    summary (the name predates the front-end window, when a report merged
    the shard windows)."""
    model, make_monitor, batches = fleet_setup
    workers = [
        InlineShardWorker(PredictionService(model, monitor=make_monitor()), shard_id=i)
        for i in range(N_SHARDS)
    ]
    with FleetService(workers) as fleet:
        for X, group, y in batches:
            fleet.predict(X, group, y_true=y)

        outcome = benchmark(fleet.fleet_report)
        assert outcome["n_records"] == N_ROWS
        assert outcome["windowed"]["n_window"] == fleet.monitor.n_window
        assert outcome["windowed"]["n_seen"] == N_ROWS
    benchmark.extra_info["n_shards"] = N_SHARDS


READ_WINDOW = 5000


def test_fleet_window_status_read(benchmark, fleet_setup):
    """``alarmed_channels()`` + ``windowed_summary()`` on a full window of
    5000 one-row chunks with all three channels on: a status read is O(1)
    in the chunks the window holds."""
    _, make_monitor, _ = fleet_setup
    profile = make_monitor().profile
    rng = np.random.default_rng(11)
    density = KernelDensity(bandwidth="scott").fit(rng.normal(size=(50, 6)))
    monitor = FairnessMonitor(
        window_size=READ_WINDOW,
        profile=profile,
        density_estimator=density,
        thresholds=MonitorThresholds(min_samples=100),
    )
    monitor.set_baselines(violation=0.1, log_density=-5.0, group_fraction=0.4)
    for _ in range(READ_WINDOW + 100):
        counts = StreamCounts.from_batch(rng.integers(0, 2, 1), rng.integers(0, 2, 1))
        chunk = MonitorChunk(counts, 1, float(rng.random()), 1, float(-10 * rng.random()), 1)
        monitor.commit(chunk)

    def read():
        return monitor.alarmed_channels(), monitor.windowed_summary()

    _, summary = benchmark(read)
    assert summary["n_window"] == READ_WINDOW
    assert {"drift", "density", "group"} <= set(summary)
    benchmark.extra_info["window_chunks"] = READ_WINDOW
