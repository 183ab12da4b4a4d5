"""Model serving: artifacts, a batched prediction service, online monitoring.

This subpackage turns a fitted intervention into something *deployable*,
completing the paper's non-invasive premise (fair serving without the group
attribute at prediction time):

* :mod:`repro.serving.artifacts` — schema-versioned save/load of fitted
  learners, interventions, :class:`~repro.interventions.DeployedModel`
  artifacts, and whole :class:`~repro.interventions.PipelineResult` bundles
  (manifest JSON + npz payload, bit-identical prediction round trips,
  :class:`~repro.exceptions.ArtifactError` on any mismatch);
* :mod:`repro.serving.service` — :class:`PredictionService`, a micro-batched
  (optionally thread-pooled) serving front end that enforces the
  intervention's declared capabilities;
* :mod:`repro.serving.monitor` — :class:`FairnessMonitor`, sliding-window
  DI*/AOD*/balanced-accuracy over served traffic plus three drift alarms:
  conformance violation (training-time partition profile), density drift
  (training-data KDE), and group-prevalence shift (windowed minority
  fraction vs. the training mix).  The monitor is checkpointable —
  ``state_dict`` / ``load_state_dict`` round-trip the full sliding window
  bit-identically, and it rides in artifacts;
* :mod:`repro.serving.mitigation` — :class:`MitigationController`, the
  response half of the loop (see *Closing the loop* below), plus
  :func:`calibrate_thresholds` for data-driven alarm thresholds;
* :mod:`repro.serving.cli` — the ``repro-serve`` command
  (``fit``/``save``/``score``/``serve``), also ``python -m repro.serving.cli``.

Closing the loop
----------------
Detection alone does not keep a deployment fair; the paper's premise is
that its interventions are cheap enough to *refit online*.
:class:`MitigationController` wraps a monitored service and completes
detect → mitigate → shadow-deploy → promote: on any monitor alarm it
refits the intervention on the buffered drifted window (a fresh
:class:`~repro.interventions.FairnessPipeline` with the same registry and
``fit_n_jobs`` threading), runs the candidate as a **shadow model** scored
by its own private :class:`FairnessMonitor` on the same live traffic —
profile and baselines re-anchored on the drifted regime — and **promotes**
it once the windowed DI* recovers to within tolerance of the last healthy
level with no balanced-accuracy regression.  Every transition (``alarm``,
``refit``, ``shadow_start``, ``promote``/``reject``) is recorded and
persists via :func:`save_audit_trail` as a schema-versioned artifact that
replays bit-identically.  Monitor configuration is first-class for this:
thresholds travel as one :class:`MonitorThresholds` object (derive one
from a control replay with :func:`calibrate_thresholds`), and baselines as
one :class:`MonitorBaselines` via :meth:`FairnessMonitor.set_baselines`.
Drive the whole loop from simulated drift with
``repro-simulate run --mitigate`` or
:meth:`repro.simulate.SuiteRunner.replay_scenario` (``mitigate=True``),
which also scores time-to-recovery and fairness-regret.

Thread safety
-------------
A :class:`PredictionService` **is** safe to share across caller threads:
worker-pool initialization, :class:`ServiceStats` accumulation, and the
attached monitor's window updates are serialized under one internal service
lock, and ``predict`` after ``close()`` raises
:class:`~repro.exceptions.ValidationError` (it never resurrects a pool).  A
bare :class:`FairnessMonitor` is **not** internally synchronized — share it
only through a service (which locks around ``update``) or add your own
lock.  Loaded artifacts and :class:`~repro.interventions.DeployedModel`
instances are read-only at predict time and safe to share.

Observability
-------------
With :mod:`repro.telemetry` enabled (``telemetry.enable()`` or any CLI's
``--metrics-out``), every ``predict`` records ``serving.requests_total`` /
``serving.records_total`` counters and ``serving.request_latency_seconds``
/ ``serving.batch_rows`` / ``serving.queue_wait_seconds`` histograms, and
the mmap extraction cache publishes ``serving.mmap_cache.*`` gauges at
export time.  Pass a private :class:`~repro.telemetry.MetricsRegistry` via
``PredictionService(..., telemetry=...)`` to keep one service's metrics
separable (fleet shards do this so their histograms merge exactly); by
default the process-wide registry is used.  Recording costs one attribute
read while telemetry is off.

The flight recorder rides alongside: when the service's
:class:`~repro.telemetry.EventLog` is enabled (``--events-out`` on any
CLI), every ``predict`` emits a ``request`` event stamped with the
monitor-assigned sequence, :class:`MitigationController` logs every
transition together with a full
:meth:`FairnessMonitor.alarm_report` channel-attribution snapshot, and
alarm edges carry the same snapshot — so ``repro-telemetry tail --kind
channel_snapshot`` answers *which channel alarmed, at what statistic,
against what threshold* after the fact.  When a request arrives with a
``trace_id`` (the fleet front-end assigns deterministic ones), the service
opens a ``serving.request`` span carrying the trace id, row count,
shard id, and served sequence — the join key back into the event log.

Scaling out
-----------
One service on one thread pool is the single-shard case.  To serve the same
artifact from N shards, see :mod:`repro.fleet`: ``load_artifact(...,
mmap_mode="r")`` memory-maps the payload so every extra worker's cold start
is O(manifest) rather than O(weights), per-shard monitors stay mergeable —
:meth:`FairnessMonitor.merge` folds their ``state_dict``s into the exact
state one monitor would hold after observing the union stream (chunks carry
monotone sequence stamps, so the merge is associative, order-invariant, and
bit-identical) — and :class:`~repro.fleet.FleetService` sends requests
round-robin to the shards while aggregating their :class:`ServiceStats` and
merged windowed report.  Everything here stays valid per shard; the fleet layer
only adds dispatch and aggregation on top.

Quickstart::

    from repro import FairnessPipeline
    from repro.serving import PredictionService, FairnessMonitor, save_artifact

    result = FairnessPipeline("diffair", dataset="meps", seed=7).run()
    save_artifact(result, "artifacts/meps-diffair")

    service = PredictionService.from_artifact(
        "artifacts/meps-diffair", monitor=FairnessMonitor(window_size=5000)
    )
    predictions = service.predict(incoming_rows)          # group-blind
    print(service.monitor.windowed_summary())
"""

from repro.serving.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    describe_artifact,
    find_profile,
    load_artifact,
    read_manifest,
    register_serializable,
    save_artifact,
)
from repro.serving.mitigation import (
    MITIGATION_SCHEMA_VERSION,
    MitigationController,
    MitigationTransition,
    ThresholdCalibration,
    calibrate_thresholds,
    load_audit_trail,
    save_audit_trail,
    summarize_transitions,
)
from repro.serving.monitor import (
    DensityDriftStatus,
    DriftStatus,
    FairnessMonitor,
    GroupShiftStatus,
    MonitorBaselines,
    MonitorThresholds,
)
from repro.serving.service import PredictionService, ServiceStats

# The monitor is checkpointable: registering it here (the one module that
# already imports both sides) lets a windowed monitor ride inside artifacts
# without coupling monitor.py to the artifact encoder.
register_serializable(FairnessMonitor)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "MITIGATION_SCHEMA_VERSION",
    "DensityDriftStatus",
    "DriftStatus",
    "FairnessMonitor",
    "GroupShiftStatus",
    "MitigationController",
    "MitigationTransition",
    "MonitorBaselines",
    "MonitorThresholds",
    "PredictionService",
    "ServiceStats",
    "ThresholdCalibration",
    "calibrate_thresholds",
    "describe_artifact",
    "find_profile",
    "load_artifact",
    "load_audit_trail",
    "read_manifest",
    "register_serializable",
    "save_artifact",
    "save_audit_trail",
    "summarize_transitions",
]
