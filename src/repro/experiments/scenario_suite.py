"""Scenario-suite report: how fast do the monitors catch simulated drift?

This experiment goes beyond the paper's static evaluation: it fits one
intervention, deploys it behind a monitored
:class:`~repro.serving.PredictionService`, and replays a named
:mod:`repro.simulate` scenario suite against it — one row per scenario with
detection latency, false-alarm rate, windowed fairness degradation, and
throughput.  The stationary control row is the specificity check (a healthy
stack shows ``detected = False`` and zero false alarms there), the drift rows
are the sensitivity check.
"""

from __future__ import annotations

from repro.datasets import load_dataset, split_dataset
from repro.density.kde import KernelDensity
from repro.experiments.reporting import FigureResult
from repro.interventions import FairnessPipeline
from repro.serving import find_profile
from repro.simulate.suites import SuiteRunner


def run_scenario_suite(
    *,
    suite: str = "default",
    dataset: str = "meps",
    intervention: str = "confair",
    learner: str = "lr",
    seed: int = 7,
    size_factor: float = 0.05,
    n_steps: int = 40,
    batch_size: int = 128,
    window_size: int = 2000,
    use_density: bool = True,
) -> FigureResult:
    """Fit, deploy, and replay a scenario suite; one row per scenario."""
    result = FairnessPipeline(
        intervention=intervention,
        learner=learner,
        dataset=dataset,
        size_factor=size_factor,
        seed=seed,
    ).run()
    data = load_dataset(dataset, size_factor=size_factor, random_state=seed)
    split = split_dataset(data, random_state=seed)
    density_estimator = (
        KernelDensity(bandwidth="scott", kernel="gaussian").fit(split.train.numeric_X)
        if use_density
        else None
    )
    runner = SuiteRunner(
        result.model,
        split.train,
        profile=find_profile(result),
        density_estimator=density_estimator,
        calibration=split.validation,
        window_size=window_size,
    )
    rows = []
    for label, outcome in runner.run(
        suite, split.deploy, n_steps=n_steps, batch_size=batch_size, seed=seed
    ):
        rows.append(
            {
                "scenario": label,
                "detected": outcome.detected,
                "detection_latency_steps": outcome.detection_latency_steps,
                "detection_latency_records": outcome.detection_latency_records,
                "false_alarm_rate": round(outcome.false_alarm_rate, 4),
                "di_star_degradation": (
                    round(outcome.di_star_degradation, 4)
                    if outcome.di_star_degradation is not None
                    else None
                ),
                "records_per_second": round(outcome.records_per_second, 1),
                "channels": ",".join(sorted(outcome.channel_first_alarm)) or "-",
            }
        )
    return FigureResult(
        figure_id="scenario_suite",
        title=(
            f"Scenario suite {suite!r}: {intervention} on {dataset} — "
            "monitor detection latency and false alarms under simulated drift"
        ),
        rows=rows,
        notes=[
            "Rows replay seed-deterministic TrafficStream scenarios through a "
            "monitored PredictionService (repro.simulate).",
            "The 'control' row is the specificity check: no detection, no "
            "false alarms on stationary traffic.",
        ],
    )
