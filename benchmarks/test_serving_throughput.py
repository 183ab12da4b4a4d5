"""Benchmark: serving throughput of the ``PredictionService``.

Measures records/second for a 10k-row batch pushed through a loaded DiffFair
artifact (group-blind serving, the paper's deployment scenario) and records
the rate into the benchmark JSON via ``extra_info`` so CI runs can track it.
Shape assertions: micro-batching must not change predictions, and the
attached monitor's windowed DI* must equal the offline metric.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FairnessPipeline
from repro.datasets import load_dataset, split_dataset
from repro.fairness import evaluate_predictions
from repro.serving import FairnessMonitor, PredictionService, save_artifact

N_ROWS = 10_000


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    result = FairnessPipeline(
        "diffair", learner="lr", dataset="meps", size_factor=0.05, seed=7
    ).run()
    artifact = save_artifact(result, tmp_path_factory.mktemp("artifact") / "meps-diffair")
    data = load_dataset("meps", size_factor=0.05, random_state=7)
    deploy = split_dataset(data, random_state=7).deploy
    index = np.tile(np.arange(deploy.n_samples), N_ROWS // deploy.n_samples + 1)[:N_ROWS]
    return artifact, deploy.X[index], deploy.y[index], deploy.group[index]


def test_serving_throughput_10k_batch(benchmark, serving_setup):
    artifact, X, y_true, group = serving_setup
    monitor = FairnessMonitor(window_size=2 * N_ROWS)
    service = PredictionService.from_artifact(artifact, batch_size=1024, monitor=monitor)

    predictions = benchmark(service.predict, X, group, y_true=y_true)

    assert predictions.shape == (N_ROWS,)
    assert not service.requires_group  # DiffFair serves group-blind
    offline = evaluate_predictions(y_true, predictions, group)
    assert abs(monitor.windowed_report().di_star - offline.di_star) < 1e-9

    records_per_second = N_ROWS / benchmark.stats.stats.mean
    benchmark.extra_info["records_per_second"] = round(records_per_second, 1)
    benchmark.extra_info["n_rows"] = N_ROWS
    print(f"\nserving throughput: {records_per_second:,.0f} records/s")
