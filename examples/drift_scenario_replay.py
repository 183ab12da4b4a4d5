"""Scenario replay quickstart: inject a group-prevalence shift, time its detection.

The script walks the simulation path the ``repro.simulate`` subsystem adds:

1. fit ConFair on the MEPS surrogate through the ``FairnessPipeline``
   (group-blind serving — the paper's deployment premise);
2. deploy it behind a ``PredictionService`` whose ``FairnessMonitor`` has all
   three drift channels armed (conformance profile, training-data KDE, and
   the training-time minority fraction);
3. replay two seed-deterministic traffic streams through it: a stationary
   control and a ``group_shift`` scenario that resamples traffic toward a
   0.9 minority fraction halfway through the timeline;
4. print what the monitor saw: the control must stay silent, the shift must
   be flagged — with the detection latency, false-alarm rate, and windowed
   fairness degradation the replay harness scores.

Run with:  python examples/drift_scenario_replay.py
"""

from repro import FairnessPipeline, load_dataset, split_dataset
from repro.density import KernelDensity
from repro.serving import find_profile
from repro.simulate import SuiteRunner, make_scenario


def main() -> None:
    # 1. Fit: conformance-driven reweighing, group-blind at serving time.
    result = FairnessPipeline(
        intervention="confair", learner="lr", dataset="meps", seed=7
    ).run()
    print(f"fitted {result.method} on {result.dataset}: "
          f"offline DI* = {result.report.di_star:.4f}")

    data = load_dataset("meps", size_factor=0.05, random_state=7)
    split = split_dataset(data, random_state=7)

    # 2. Deploy with every drift channel armed.  The density baseline is
    #    calibrated on the validation split (a KDE flatters its own training
    #    sample), the conformance and group baselines on the training split.
    runner = SuiteRunner(
        result.model,
        split.train,
        profile=find_profile(result),
        density_estimator=KernelDensity(bandwidth="scott").fit(split.train.numeric_X),
        calibration=split.validation,
        window_size=2000,
    )

    # 3. Replay: stationary control, then the group-prevalence shift.
    for name in ("none", "group_shift"):
        outcome = runner.replay_scenario(
            make_scenario(name), split.deploy,
            label=name, n_steps=40, batch_size=128, seed=7,
        )
        print(f"\nscenario {name!r}: served {outcome.n_records} records "
              f"at {outcome.records_per_second:,.0f} records/s")
        print(f"  false alarms on clean traffic: {outcome.n_false_alarms} "
              f"({outcome.false_alarm_rate:.1%})")
        if outcome.first_drift_step is None:
            print("  no drift injected; detected =", outcome.detected)
            continue
        # 4. Detection scoring against the scenario's declared ground truth.
        print(f"  drift injected at step {outcome.first_drift_step}, "
              f"detected = {outcome.detected} "
              f"by {sorted(outcome.channel_first_alarm)}")
        print(f"  detection latency: {outcome.detection_latency_steps} steps "
              f"({outcome.detection_latency_records} records)")
        if outcome.di_star_degradation is not None:
            print(f"  windowed DI* degradation under drift: "
                  f"{outcome.di_star_degradation:+.4f}")


if __name__ == "__main__":
    main()
