"""Named scenario suites and the engine that replays them.

A *suite* is an ordered set of labelled scenarios — always including a
stationary control — that exercises one serving stack from several drift
angles at once.  :class:`SuiteRunner` owns the shared setup (baselines are
computed once from the training split; every scenario gets a fresh monitor
and a fresh deterministic stream) so suite results are comparable across
scenarios and runs.

Suite entries are declarative: a scenario name, ``(name, params)``, or a
sequence of those (replayed as a :class:`~repro.simulate.scenarios.Compose`),
so suites can be listed/extended without touching the runner.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.table import Dataset
from repro.density.kde import KernelDensity
from repro.exceptions import SimulationError
from repro.serving.mitigation import (
    MitigationController,
    ThresholdCalibration,
    calibrate_thresholds,
)
from repro.serving.monitor import FairnessMonitor, MonitorBaselines, MonitorThresholds
from repro.serving.service import PredictionService
from repro.simulate.base import Scenario
from repro.simulate.registry import make_scenario
from repro.simulate.replay import ReplayHarness, ReplayResult
from repro.simulate.scenarios import Compose
from repro.simulate.stream import TrafficStream

#: Declarative suite table: label -> scenario spec (see :func:`build_scenario`).
SCENARIO_SUITES: Dict[str, Tuple[Tuple[str, object], ...]] = {
    "default": (
        ("control", "none"),
        ("group_shift", "group_shift"),
        ("covariate_shift", "covariate_shift"),
        ("burst", "burst"),
    ),
    "drift": (
        ("control", "none"),
        ("covariate_shift", "covariate_shift"),
        ("gradual_covariate_shift", "gradual_covariate_shift"),
        ("label_shift", "label_shift"),
        ("group_shift", "group_shift"),
        ("gradual_group_shift", "gradual_group_shift"),
        ("seasonal", "seasonal"),
        ("feedback", "feedback"),
    ),
    "traffic": (
        ("control", "none"),
        ("burst", "burst"),
        ("flash_crowd", "flash_crowd"),
        ("ramp", "ramp"),
    ),
    "full": (
        ("control", "none"),
        ("covariate_shift", "covariate_shift"),
        ("label_shift", "label_shift"),
        ("group_shift", "group_shift"),
        ("seasonal", "seasonal"),
        ("feedback", "feedback"),
        ("burst", "burst"),
        ("ramp", "ramp"),
        ("burst_group_shift", (("burst", {}), ("group_shift", {}))),
    ),
}


def available_suites() -> List[str]:
    """Names accepted by :func:`make_suite` / ``repro-simulate suite``."""
    return list(SCENARIO_SUITES)


def build_scenario(spec) -> Scenario:
    """Build one scenario from a declarative spec.

    Accepts a registered name, a ``(name, params)`` pair, or a sequence of
    those (composed in order).
    """
    if isinstance(spec, str):
        return make_scenario(spec)
    if (
        isinstance(spec, Sequence)
        and len(spec) == 2
        and isinstance(spec[0], str)
        and isinstance(spec[1], dict)
    ):
        return make_scenario(spec[0], **spec[1])
    if isinstance(spec, Sequence) and spec:
        return Compose([build_scenario(item) for item in spec])
    raise SimulationError(f"Cannot build a scenario from spec {spec!r}")


def make_suite(name: str) -> List[Tuple[str, Scenario]]:
    """Materialize a named suite into ``(label, scenario)`` pairs."""
    key = name.strip().lower()
    if key not in SCENARIO_SUITES:
        raise SimulationError(
            f"Unknown suite {name!r}; available suites: {tuple(available_suites())}"
        )
    return [(label, build_scenario(spec)) for label, spec in SCENARIO_SUITES[key]]


class SuiteRunner:
    """Replay scenarios against one model with shared, precomputed baselines.

    Parameters
    ----------
    model:
        Anything :class:`PredictionService` serves (a loaded artifact, a
        :class:`~repro.interventions.DeployedModel`, a ``PipelineResult``).
    train:
        The training split: conformance/density/group baselines are fixed on
        it once and reused by every scenario's fresh monitor.
    profile:
        Optional :class:`~repro.core.partitions.PartitionProfile` enabling
        the conformance-drift channel.
    density_estimator:
        Optional *fitted* :class:`KernelDensity` enabling the density-drift
        channel (fit one on ``train.numeric_X`` to monitor the training
        distribution).
    calibration:
        Optional held-out split (typically validation) used to fix the
        *density* baseline.  A KDE scores its own training sample
        optimistically high — anchoring the baseline there makes every
        held-out batch look drifted — so clean held-out data is the honest
        reference level; conformance and group baselines are unbiased on the
        training split and stay there.
    window_size:
        Monitor window shared by every scenario.
    thresholds:
        Optional :class:`~repro.serving.MonitorThresholds` shared by every
        scenario's monitor (derive one with :meth:`calibrate`); defaults to
        ``MonitorThresholds()``.
    service_batch_size:
        Micro-batch size of the underlying service.
    intervention, learner, intervention_params, fit_n_jobs:
        The refit recipe handed to :class:`~repro.serving.MitigationController`
        when a replay runs with ``mitigate=True`` (defaults mirror the
        runner's typical fit: ConFair over logistic regression).
    mitigation_params:
        Extra keyword arguments forwarded verbatim to
        :class:`~repro.serving.MitigationController` (``min_refit_rows``,
        ``min_shadow_steps``, ``max_shadow_steps``, ``cooldown_steps``).
    """

    def __init__(
        self,
        model,
        train: Dataset,
        *,
        profile=None,
        density_estimator: Optional[KernelDensity] = None,
        calibration: Optional[Dataset] = None,
        window_size: int = 2000,
        thresholds: Optional[MonitorThresholds] = None,
        service_batch_size: int = 512,
        intervention: str = "confair",
        learner: str = "lr",
        intervention_params: Optional[Dict[str, object]] = None,
        fit_n_jobs: Optional[int] = None,
        mitigation_params: Optional[Dict[str, object]] = None,
    ) -> None:
        self.model = model
        self.train = train
        self.profile = profile
        self.density_estimator = density_estimator
        self.window_size = int(window_size)
        self.thresholds = thresholds if thresholds is not None else MonitorThresholds()
        self.service_batch_size = int(service_batch_size)
        self.intervention = intervention
        self.learner = learner
        self.intervention_params = dict(intervention_params or {})
        self.fit_n_jobs = fit_n_jobs
        self.mitigation_params = dict(mitigation_params or {})

        probe = self._fresh_monitor()
        if profile is not None:
            probe.set_baselines(violation=train.X)
        if density_estimator is not None:
            density_reference = calibration if calibration is not None else train
            probe.set_baselines(log_density=density_reference.X)
        probe.set_baselines(group_fraction=float(train.minority_fraction))
        self._baselines = probe.baselines

    @property
    def baselines(self) -> MonitorBaselines:
        """The shared reference points every scenario's monitor starts from."""
        return self._baselines

    def _fresh_monitor(self) -> FairnessMonitor:
        return FairnessMonitor(
            window_size=self.window_size,
            profile=self.profile,
            density_estimator=self.density_estimator,
            thresholds=self.thresholds,
        )

    def make_monitor(self) -> FairnessMonitor:
        """A fresh monitor with the shared thresholds and baselines installed."""
        monitor = self._fresh_monitor()
        monitor.set_baselines(self._baselines)
        return monitor

    def calibrate(
        self,
        deploy: Dataset,
        *,
        n_steps: int = 40,
        batch_size: int = 128,
        seed: int = 0,
        target_false_alarm_rate: float = 0.05,
    ) -> ThresholdCalibration:
        """Derive data-driven thresholds from a stationary control replay.

        Streams ``deploy`` through a drift-free :class:`TrafficStream` and
        hands the batches to
        :func:`repro.serving.calibrate_thresholds`, which sets each alarm
        cutoff just above what clean traffic reaches at the requested
        false-alarm budget.
        """
        stream = TrafficStream(
            deploy,
            make_scenario("none"),
            n_steps=n_steps,
            batch_size=batch_size,
            random_state=seed,
        )
        return calibrate_thresholds(
            self.make_monitor(),
            list(stream),
            target_false_alarm_rate=target_false_alarm_rate,
        )

    def make_service(
        self, *, shards: Optional[int] = None, mitigate: bool = False, seed: int = 7
    ):
        """A fresh monitored service with the shared baselines installed.

        With ``shards=N`` the returned service is a
        :class:`~repro.fleet.FleetService` over N in-process shard workers,
        each serving the same model with its own fresh baseline-installed
        monitor to score with.  The front-end commits the shards' chunks in
        sequence order into one window, which makes the fleet's monitor —
        and therefore the replay verdict — bit-identical to the
        single-service run.

        With ``mitigate=True`` the single-shard service is wrapped in a
        :class:`~repro.serving.MitigationController` (refit recipe and knobs
        from the runner's constructor; ``seed`` fixes the refit split), so
        alarms trigger the refit → shadow → promote loop instead of only
        being scored.
        """
        if mitigate:
            if shards is not None and int(shards) > 1:
                raise SimulationError(
                    "mitigate=True drives a single-service controller; "
                    "sharded mitigation is not supported"
                )
            return MitigationController(
                PredictionService(
                    self.model,
                    batch_size=self.service_batch_size,
                    monitor=self.make_monitor(),
                ),
                intervention=self.intervention,
                learner=self.learner,
                intervention_params=self.intervention_params,
                fit_n_jobs=self.fit_n_jobs,
                seed=seed,
                n_numeric_features=self.train.n_numeric_features,
                **self.mitigation_params,
            )
        if shards is None or int(shards) <= 1:
            return PredictionService(
                self.model,
                batch_size=self.service_batch_size,
                monitor=self.make_monitor(),
            )
        # Imported lazily: repro.fleet's replay helpers import this module.
        from repro.fleet.service import FleetService
        from repro.fleet.workers import InlineShardWorker
        from repro.telemetry import (
            EventLog,
            MetricsRegistry,
            events_enabled,
            telemetry_enabled,
        )

        # Each inline shard records into its own registry and event log
        # (inheriting the process-wide enabled flags): per-shard latency
        # histograms and request events then merge into the fleet view
        # without double counting.
        workers = [
            InlineShardWorker(
                PredictionService(
                    self.model,
                    batch_size=self.service_batch_size,
                    monitor=self.make_monitor(),
                    telemetry=MetricsRegistry(enabled=telemetry_enabled()),
                    events=EventLog(enabled=events_enabled()),
                    shard_id=shard_id,
                ),
                shard_id=shard_id,
            )
            for shard_id in range(int(shards))
        ]
        return FleetService(workers)

    def replay_scenario(
        self,
        scenario: Scenario,
        deploy: Dataset,
        *,
        label: Optional[str] = None,
        n_steps: int = 40,
        batch_size: int = 128,
        seed: int = 0,
        shards: Optional[int] = None,
        mitigate: bool = False,
        recovery_tolerance: float = 0.05,
    ) -> ReplayResult:
        """Replay one scenario over ``deploy`` traffic with a fresh monitor.

        ``mitigate=True`` wraps the service in a
        :class:`~repro.serving.MitigationController` so the replay scores the
        closed loop — time-to-recovery and fairness-regret land on the
        :class:`~repro.simulate.replay.ReplayResult` alongside detection.
        """
        stream = TrafficStream(
            deploy, scenario, n_steps=n_steps, batch_size=batch_size, random_state=seed
        )
        with self.make_service(shards=shards, mitigate=mitigate, seed=seed) as service:
            return ReplayHarness(service).replay(
                stream, label=label, recovery_tolerance=recovery_tolerance
            )

    def run(
        self,
        suite: str,
        deploy: Dataset,
        *,
        n_steps: int = 40,
        batch_size: int = 128,
        seed: int = 0,
        shards: Optional[int] = None,
        mitigate: bool = False,
        recovery_tolerance: float = 0.05,
    ) -> List[Tuple[str, ReplayResult]]:
        """Replay every scenario of a named suite; returns ``(label, result)``."""
        return [
            (
                label,
                self.replay_scenario(
                    scenario,
                    deploy,
                    label=label,
                    n_steps=n_steps,
                    batch_size=batch_size,
                    seed=seed,
                    shards=shards,
                    mitigate=mitigate,
                    recovery_tolerance=recovery_tolerance,
                ),
            )
            for label, scenario in make_suite(suite)
        ]
