"""Benchmark: wall-clock cost of the closed mitigation loop.

Measures one full detect → refit → shadow → promote cycle over a
group-prevalence-shift replay — monitored serving, alarm handling, the
in-loop ``FairnessPipeline`` refit, and shadow scoring — and records
records/second plus the time-to-recovery into the benchmark JSON via
``extra_info`` so the CI benchmark-regression gate can track the loop next
to the detection-only replay.  Shape assertions: the loop must promote
exactly once per replay with DI* recovery and no promotion on the
stationary control.
"""

from __future__ import annotations

import pytest

from repro import FairnessPipeline
from repro.datasets import load_dataset, split_dataset
from repro.serving import MonitorThresholds, find_profile
from repro.simulate import SuiteRunner, make_scenario

N_STEPS = 40
BATCH_SIZE = 100
N_ROWS = N_STEPS * BATCH_SIZE


@pytest.fixture(scope="module")
def mitigation_setup():
    result = FairnessPipeline(
        "confair", learner="lr", dataset="meps", size_factor=0.03, seed=7
    ).run()
    data = load_dataset("meps", size_factor=0.03, random_state=7)
    split = split_dataset(data, random_state=7)
    runner = SuiteRunner(
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
    return runner, split


def test_mitigation_loop_end_to_end(benchmark, mitigation_setup):
    runner, split = mitigation_setup

    def closed_loop():
        return runner.replay_scenario(
            make_scenario("group_shift"),
            split.deploy,
            label="group_shift",
            n_steps=N_STEPS,
            batch_size=BATCH_SIZE,
            seed=7,
            mitigate=True,
        )

    outcome = benchmark(closed_loop)
    assert outcome.n_records == N_ROWS
    assert outcome.detected, "the injected group-prevalence shift must be flagged"
    assert outcome.mitigation["promoted"], "the loop must promote the refit candidate"
    assert outcome.mitigation["events"]["reject"] == 0
    assert outcome.recovered, "windowed DI* must recover after promotion"
    assert outcome.time_to_recovery_steps > 0
    assert outcome.fairness_regret >= 0.0

    control = runner.replay_scenario(
        make_scenario("none"), split.deploy,
        label="control", n_steps=N_STEPS, batch_size=BATCH_SIZE, seed=7,
        mitigate=True,
    )
    assert not control.detected
    assert control.mitigation["n_transitions"] == 0, "control must stay promotion-free"

    records_per_second = N_ROWS / benchmark.stats.stats.mean
    benchmark.extra_info["records_per_second"] = round(records_per_second, 1)
    benchmark.extra_info["n_rows"] = N_ROWS
    benchmark.extra_info["time_to_recovery_steps"] = outcome.time_to_recovery_steps
    benchmark.extra_info["fairness_regret"] = outcome.fairness_regret
    print(f"\nmitigation loop: {records_per_second:,.0f} records/s, "
          f"recovery in {outcome.time_to_recovery_steps} steps")
