"""repro — reproduction of "Non-Invasive Fairness in Learning Through the Lens of Data Drift" (ICDE 2024).

The package implements the paper's two non-invasive fairness interventions —
:class:`~repro.core.ConFair` (conformance-driven reweighing) and
:class:`~repro.core.DiffFair` (conformance-routed model splitting) — together
with every substrate they depend on: a from-scratch ML layer (logistic
regression, gradient-boosted trees, scalers, encoders), the Conformance
Constraints profiling primitive, kernel density estimation, fairness metrics,
benchmark dataset surrogates, the baselines the paper compares against, and
an experiment harness that regenerates every figure of the evaluation.

Every method is exposed through one estimator surface: the
:class:`~repro.interventions.Intervention` protocol and its registry
(:func:`make_intervention`, :func:`available_interventions`), composed end to
end by the :class:`~repro.interventions.FairnessPipeline` facade.

Quickstart::

    from repro import FairnessPipeline

    baseline = FairnessPipeline(intervention="none", learner="lr", dataset="meps", seed=7).run()
    treated = FairnessPipeline(intervention="confair", learner="lr", dataset="meps", seed=7).run()
    print(baseline.report.di_star, "->", treated.report.di_star,
          "at alpha_u =", treated.details["alpha_u"])

The pipeline loads the benchmark, splits it 70/15/15, fits the intervention
(auto-tuning its degree on the validation split), trains the final model
through the intervention's uniform ``make_model``, and evaluates the deploy
set into a :class:`~repro.fairness.FairnessReport`.  The underlying
estimators (``ConFair``, ``DiffFair``, the baselines) remain directly usable
for fine-grained control.

Serving quickstart::

    from repro import FairnessPipeline, save_artifact
    from repro.serving import FairnessMonitor, PredictionService

    result = FairnessPipeline("diffair", dataset="meps", seed=7).run()
    save_artifact(result, "artifacts/meps-diffair")

    monitor = FairnessMonitor(window_size=5000, profile=result.intervention.profile_)
    service = PredictionService.from_artifact(
        "artifacts/meps-diffair", batch_size=512, max_workers=4, monitor=monitor
    )
    predictions = service.predict(rows)          # group-blind, micro-batched
    print(monitor.windowed_summary()["di_star"], monitor.drift_status().alarm)

An artifact is a directory holding ``manifest.json`` (schema-versioned
structure: every estimator's constructor parameters plus its declared
``state_dict``) and ``payload.npz`` (the numeric state, stored losslessly).
Round trips are guaranteed bit-identical — ``load_artifact(save_artifact(m))``
predicts exactly what ``m`` predicts for every registered intervention ×
learner pair — and any mismatch (schema version, unknown learner class,
corrupted payload) raises :class:`~repro.exceptions.ArtifactError`.  The
``repro-serve`` console script (``python -m repro.serving.cli``) wires the
path end to end: ``fit`` → ``save`` → ``serve``/``score``.

Simulation quickstart::

    from repro import FairnessPipeline, load_dataset, split_dataset
    from repro.serving import FairnessMonitor, PredictionService
    from repro.simulate import ReplayHarness, TrafficStream, make_scenario

    result = FairnessPipeline("confair", dataset="meps", seed=7).run()
    data = load_dataset("meps", size_factor=0.05, random_state=7)  # the pipeline's default scale
    split = split_dataset(data, random_state=7)
    monitor = FairnessMonitor(window_size=2000)
    monitor.set_baselines(group_fraction=split.train.group)
    service = PredictionService(result.model, monitor=monitor)

    stream = TrafficStream(split.deploy, make_scenario("group_shift"),
                           n_steps=40, batch_size=128, random_state=7)
    outcome = ReplayHarness(service).replay(stream)
    print(outcome.detected, outcome.detection_latency_steps, outcome.false_alarm_rate)

Detection closes into mitigation: wrap the service in a
:class:`~repro.serving.MitigationController` (or pass ``mitigate=True`` to
:meth:`~repro.simulate.SuiteRunner.replay_scenario`, or run
``repro-simulate run --mitigate``) and every alarm triggers refit →
shadow-score → promote on live traffic, with the replay reporting
time-to-recovery and fairness-regret and the controller's transition trail
persisting as a schema-versioned artifact
(:func:`~repro.serving.save_audit_trail`).  Monitor configuration travels
as first-class objects — :class:`~repro.serving.MonitorThresholds`
(derivable from a control replay at a target false-alarm rate via
:func:`~repro.serving.calibrate_thresholds`) and
:class:`~repro.serving.MonitorBaselines`.

The scenario engine (:mod:`repro.simulate`) generates the drifting, bursty,
group-shifting traffic the serving monitors exist to catch: registered,
composable, seed-deterministic scenarios (``@register_scenario`` /
``make_scenario``, mirroring the interventions registry), replayable
``TrafficBatch`` streams (same seed ⇒ bit-identical batches), and a
``ReplayHarness`` that scores detection latency, false-alarm rate, windowed
fairness degradation, and throughput per scenario.  The ``repro-simulate``
console script (``python -m repro.simulate``) runs a scenario or a whole
named suite end-to-end from a saved artifact and emits a JSON report.
The monitor itself is checkpointable (``state_dict`` / ``load_state_dict``
+ artifact registration), so long replays can pause and resume with
bit-identical windowed reports.

Fleet quickstart::

    from repro import FleetService, ProcessShardWorker

    workers = [
        ProcessShardWorker("artifacts/meps-confair", shard_id=i,
                           monitor_path="artifacts/meps-monitor", mmap_mode="r")
        for i in range(8)
    ]
    with FleetService(workers) as fleet:
        fleet.predict(rows, groups)
        print(fleet.fleet_report()["records_per_second"])
        print(fleet.monitor.windowed_summary()["di_star"])  # merged across shards

:mod:`repro.fleet` scales one monitored service out to N shards: worker
processes memory-map the same artifact (cold start is O(manifest), not
O(weights)), a front-end sends each request whole to the next shard
round-robin, and the per-shard ``FairnessMonitor`` states are
**merged** — :meth:`FairnessMonitor.merge` is bit-identical to one monitor
having observed the union stream, so the fleet-level DI*/AOD*/drift view is
exact, not approximate.  ``repro-fleet replay --shards N`` proves it by
asserting a sharded drift replay matches the single-service replay
bit-for-bit.

Observability::

    from repro import telemetry

    telemetry.enable()
    with telemetry.span("audit.batch", dataset="meps"):
        service.predict(rows)
    print(telemetry.export()["histograms"]["serving.request_latency_seconds"]["quantiles"])
    print(telemetry.export_prometheus())

:mod:`repro.telemetry` is the process-wide metrics and tracing substrate:
counters and gauges, fixed-bucket latency/size **histograms whose merges
are exact** (observations are quantized to integers at record time, so
per-shard histograms fold into one fleet view bit-identically to a
histogram that observed the union stream — the same contract
``FairnessMonitor.merge`` makes), and nested tracing spans over the fit,
serve, shard, and replay hot paths.  It is off by default and
near-zero-overhead while off; every serving/simulation/fleet CLI takes
``--metrics-out PATH`` to enable it and write a JSON dump, and the
``repro-telemetry`` CLI summarizes and diffs those dumps.

Alongside the metrics sits the **flight recorder**
(:class:`~repro.telemetry.EventLog`): a bounded, sequence-stamped
structured event log — served requests, alarm edges, full
:meth:`~repro.serving.FairnessMonitor.alarm_report` channel attributions,
mitigation transitions, worker lifecycle — making the same exact-merge
promise (shard-local logs fold bit-identically into the union-stream log,
keyed by the monitor's sequence stamps).  The fleet front-end stamps each
request with a deterministic trace id that shard-side request spans carry,
so ``repro-telemetry trace --trace-id ...`` stitches the frontend and
per-shard views of one request back together, joined to its event-log
records by sequence.  Every serving/simulation/fleet CLI takes
``--events-out PATH``; ``repro-telemetry tail`` reads the dumps back.

Algorithm 3's density estimation runs on a batch-first engine
(:mod:`repro.density`): ``KernelDensity(algorithm=...)`` dispatches
``score_samples`` onto a brute-force, flat batch KD-tree, or grid-hash
backend (``"auto"`` picks per kernel/shape), each backend returns
log-densities bit-identical to its seed-implementation counterpart
(enforced against the frozen copy in :mod:`repro.density.reference`), and
fitted structures are cached across fits of the same partition.  See the
:mod:`repro.density` docstring for the selection rules and the exact
equivalence guarantees.
"""

from repro.baselines import (
    CapuchinRepair,
    KamiranReweighing,
    MultiModel,
    NoIntervention,
    OmniFairReweighing,
)
from repro.core import ConFair, DiffFair, density_filter, profile_partitions
from repro.datasets import (
    Dataset,
    available_datasets,
    load_dataset,
    make_classification,
    make_drifted_groups,
    split_dataset,
)
from repro.exceptions import (
    ArtifactError,
    ConstraintError,
    DatasetError,
    ExperimentError,
    FleetError,
    NotFittedError,
    ReproError,
    SimulationError,
    TelemetryError,
    ValidationError,
)
from repro.fairness import FairnessAccumulator, FairnessReport, evaluate_predictions
from repro.interventions import (
    DeployedModel,
    FairnessPipeline,
    Intervention,
    InterventionCapabilities,
    PipelineResult,
    available_interventions,
    describe_interventions,
    make_intervention,
    register_intervention,
)
from repro.learners import (
    GradientBoostingClassifier,
    LogisticRegressionClassifier,
    make_learner,
)
from repro.profiling import ConstraintSet, discover_constraints
from repro.telemetry import MetricsRegistry

# Also exposes the submodule itself as `repro.telemetry` for the
# Observability quickstart's `from repro import telemetry`.
from repro import telemetry

__version__ = "2.0.0"

# The serving subsystem consumes everything above (interventions, learners,
# datasets), the simulation subsystem consumes serving, and the fleet
# subsystem consumes both — so these three imports must come last, in this
# order.
from repro.serving import (
    FairnessMonitor,
    MitigationController,
    MonitorBaselines,
    MonitorThresholds,
    PredictionService,
    calibrate_thresholds,
    load_artifact,
    save_artifact,
)
from repro.simulate import (
    ReplayHarness,
    ReplayResult,
    Scenario,
    SuiteRunner,
    TrafficBatch,
    TrafficStream,
    available_scenarios,
    make_scenario,
    register_scenario,
)
from repro.fleet import FleetService, InlineShardWorker, ProcessShardWorker

__all__ = [
    "ArtifactError",
    "CapuchinRepair",
    "ConFair",
    "ConstraintError",
    "ConstraintSet",
    "Dataset",
    "DatasetError",
    "DeployedModel",
    "DiffFair",
    "ExperimentError",
    "FairnessAccumulator",
    "FairnessMonitor",
    "FairnessPipeline",
    "FairnessReport",
    "FleetError",
    "FleetService",
    "GradientBoostingClassifier",
    "InlineShardWorker",
    "Intervention",
    "InterventionCapabilities",
    "KamiranReweighing",
    "LogisticRegressionClassifier",
    "MetricsRegistry",
    "MitigationController",
    "MonitorBaselines",
    "MonitorThresholds",
    "MultiModel",
    "NoIntervention",
    "NotFittedError",
    "OmniFairReweighing",
    "PipelineResult",
    "PredictionService",
    "ProcessShardWorker",
    "ReplayHarness",
    "ReplayResult",
    "ReproError",
    "Scenario",
    "SimulationError",
    "SuiteRunner",
    "TelemetryError",
    "TrafficBatch",
    "TrafficStream",
    "ValidationError",
    "__version__",
    "available_datasets",
    "available_interventions",
    "available_scenarios",
    "calibrate_thresholds",
    "density_filter",
    "describe_interventions",
    "discover_constraints",
    "evaluate_predictions",
    "load_artifact",
    "load_dataset",
    "make_classification",
    "make_drifted_groups",
    "make_intervention",
    "make_learner",
    "make_scenario",
    "profile_partitions",
    "register_intervention",
    "register_scenario",
    "save_artifact",
    "split_dataset",
    "telemetry",
]
