"""Benchmark: replay throughput of the scenario engine.

Measures records/second for a 10k-row group-prevalence-shift replay — stream
generation + monitored serving + alarm polling, the full
``repro.simulate`` hot path — against a loaded ConFair artifact, and records
the rate into the benchmark JSON via ``extra_info`` so the CI
benchmark-regression gate can track it next to the serving throughput.
Shape assertions: the injected shift must be flagged with zero false alarms,
and the stationary control replay must stay silent.
"""

from __future__ import annotations

import pytest

from repro import FairnessPipeline
from repro.datasets import load_dataset, split_dataset
from repro.serving import find_profile, save_artifact
from repro.serving.service import PredictionService
from repro.simulate import SuiteRunner, make_scenario

N_STEPS = 50
BATCH_SIZE = 200
N_ROWS = N_STEPS * BATCH_SIZE


@pytest.fixture(scope="module")
def replay_setup(tmp_path_factory):
    result = FairnessPipeline(
        "confair", learner="lr", dataset="meps", size_factor=0.05, seed=7
    ).run()
    artifact = save_artifact(result, tmp_path_factory.mktemp("artifact") / "meps-confair")
    loaded = PredictionService.from_artifact(artifact).model
    data = load_dataset("meps", size_factor=0.05, random_state=7)
    split = split_dataset(data, random_state=7)
    runner = SuiteRunner(
        loaded,
        split.train,
        profile=find_profile(loaded),
        window_size=2000,
    )
    return runner, split


def test_replay_throughput_10k_rows(benchmark, replay_setup):
    runner, split = replay_setup

    def replay():
        return runner.replay_scenario(
            make_scenario("group_shift"),
            split.deploy,
            label="group_shift",
            n_steps=N_STEPS,
            batch_size=BATCH_SIZE,
            seed=7,
        )

    outcome = benchmark(replay)

    assert outcome.n_records == N_ROWS
    assert outcome.detected, "the injected group-prevalence shift must be flagged"
    assert outcome.n_false_alarms == 0

    control = runner.replay_scenario(
        make_scenario("none"), split.deploy,
        label="control", n_steps=N_STEPS, batch_size=BATCH_SIZE, seed=7,
    )
    assert not control.detected and control.n_false_alarms == 0

    records_per_second = N_ROWS / benchmark.stats.stats.mean
    benchmark.extra_info["records_per_second"] = round(records_per_second, 1)
    benchmark.extra_info["n_rows"] = N_ROWS
    benchmark.extra_info["detection_latency_steps"] = outcome.detection_latency_steps
    print(f"\nreplay throughput: {records_per_second:,.0f} records/s")
