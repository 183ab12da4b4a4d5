"""Serving quickstart: fit on MEPS, persist, serve a batch, watch fairness.

The script walks the full deployment path the serving subsystem adds:

1. fit DiffFair on the MEPS surrogate through the ``FairnessPipeline``;
2. save the whole result as a versioned artifact (manifest + npz payload);
3. load it back into a ``PredictionService`` with a ``FairnessMonitor``
   attached and serve a batch of deploy-set traffic **without ever passing
   the group attribute to the model** — the group array below is audit
   information consumed only by the monitor;
4. print the monitor's windowed DI* (it matches the offline report exactly)
   and the conformance-drift state.

Run with:  python examples/serving_quickstart.py
"""

import tempfile

from repro import FairnessPipeline, load_dataset, split_dataset
from repro.serving import FairnessMonitor, PredictionService, save_artifact


def main() -> None:
    # 1. Fit: conformance-routed model splitting, group-blind at serving time.
    result = FairnessPipeline(
        intervention="diffair", learner="lr", dataset="meps", seed=7
    ).run()
    print(f"fitted {result.method} on {result.dataset}: "
          f"offline DI* = {result.report.di_star:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. Persist.  The artifact round-trips with bit-identical predictions.
        artifact = save_artifact(result, f"{tmp}/meps-diffair",
                                 metadata={"dataset": "meps", "seed": 7})
        print(f"saved artifact to {artifact}")

        # 3. Serve.  The monitor scores drift against DiffFair's own
        #    training-time partition profile.
        monitor = FairnessMonitor(window_size=5000,
                                  profile=result.intervention.profile_)
        service = PredictionService.from_artifact(
            artifact, batch_size=512, monitor=monitor
        )

        data = load_dataset("meps", size_factor=0.05, random_state=7)
        split = split_dataset(data, random_state=7)
        monitor.set_baselines(violation=split.train.X)

        deploy = split.deploy
        service.predict(deploy.X, deploy.group, y_true=deploy.y)

        # 4. Report.  Windowed DI* equals the offline metric on these rows.
        report = monitor.windowed_report()
        drift = monitor.drift_status()
        print(f"served {service.stats.n_records} records "
              f"at {service.stats.records_per_second:,.0f} records/s "
              f"(group-blind: {not service.requires_group})")
        print(f"windowed DI*  = {report.di_star:.4f}")
        print(f"windowed AOD* = {report.aod_star:.4f}")
        print(f"drift: mean violation {drift.mean_violation:.4f} "
              f"vs baseline {drift.baseline_violation:.4f} "
              f"-> alarm = {drift.alarm}")


if __name__ == "__main__":
    main()
