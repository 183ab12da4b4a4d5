"""Close the loop: detect → mitigate → shadow-deploy → promote.

The monitors (:mod:`repro.serving.monitor`) only *detect* drift; this module
responds to it.  :class:`MitigationController` wraps a monitored
:class:`~repro.serving.PredictionService` and runs a small state machine on
the live traffic:

1. **monitoring** — traffic flows through the primary service; while no
   alarm is raised the controller tracks the last *healthy* windowed DI* and
   balanced accuracy (the recovery targets);
2. **alarmed** — any monitor channel (conformance, density, group) fired.
   Labelled traffic keeps accumulating in a bounded buffer; once enough rows
   are available the controller *refits* the intervention on the drifted
   window through a fresh :class:`~repro.interventions.FairnessPipeline`
   (same registry and ``fit_n_jobs`` threading as offline fits);
3. **shadowing** — the refitted candidate serves the same live traffic as a
   *shadow model*: its predictions are scored by a private
   :class:`~repro.serving.FairnessMonitor` (rebuilt around the candidate's
   new partition profile, with baselines re-anchored on the drifted window)
   but never returned to callers;
4. **promote / reject** — once the shadow window is warm, the candidate is
   promoted when its windowed DI* has recovered to within tolerance of the
   healthy level with no balanced-accuracy regression and no shadow alarm;
   a candidate that cannot prove itself within ``max_shadow_steps`` is
   rejected and the primary keeps serving.

Every transition (``alarm``, ``refit``, ``refit_failed``, ``shadow_start``,
``promote``, ``reject``) is recorded as a :class:`MitigationTransition` with
deterministic, JSON-scalar details, so the audit trail of a seeded replay is
reproducible run to run and — persisted via :func:`save_audit_trail` /
:func:`load_audit_trail` as a schema-versioned artifact — replays
bit-identically.

Adaptive thresholds live here too: :func:`calibrate_thresholds` replays
*control* (drift-free) traffic through a probe monitor and derives
``drift_factor`` / ``density_drop`` / ``group_tolerance`` that keep the
joint false-alarm rate at or below a requested target, returning the
calibrated :class:`~repro.serving.MonitorThresholds` inside a
:class:`ThresholdCalibration`.

With :mod:`repro.telemetry` enabled, every transition increments a
``mitigation.<event>_total`` counter and leaves a ``mitigation.transition``
span; refits additionally run under a ``mitigation.refit`` span and feed the
``mitigation.refit_seconds`` histogram.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.splits import split_dataset
from repro.datasets.table import Dataset
from repro.density.kde import KernelDensity
from repro.exceptions import ArtifactError, ReproError, ValidationError
from repro.serving.artifacts import find_profile, load_artifact, save_artifact
from repro.serving.monitor import FairnessMonitor, MonitorThresholds
from repro.serving.service import PredictionService, ServiceStats
from repro.telemetry import MetricsRegistry, get_event_log

MITIGATION_SCHEMA_VERSION = 1
"""Bumped whenever the persisted audit-trail layout changes incompatibly."""

#: Transition events in the order the state machine can emit them.
TRANSITION_EVENTS = (
    "alarm",
    "refit",
    "refit_failed",
    "shadow_start",
    "promote",
    "reject",
)

#: Bound on the controller's labelled-row buffer; the oldest rows drop first.
BUFFER_ROWS = 4000

#: Promotion needs the shadow's windowed DI* within this of the last healthy DI*.
DI_TOLERANCE = 0.10

#: Promotion needs the shadow's balanced accuracy within this of the last
#: healthy level.
ACCURACY_TOLERANCE = 0.05


@dataclass(frozen=True)
class MitigationTransition:
    """One audit-trail entry: what the controller did, when, and why.

    ``step`` counts the controller's served requests (one replay step each);
    ``n_seen`` is the primary monitor's cumulative record count at the
    transition.  ``details`` holds only JSON scalars (strings, ints, floats,
    bools, ``None``) so the trail round-trips bit-identically through the
    artifact manifest.
    """

    event: str
    step: int
    n_seen: int
    details: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.event not in TRANSITION_EVENTS:
            raise ValidationError(
                f"Unknown mitigation event {self.event!r}; expected one of "
                f"{TRANSITION_EVENTS}"
            )
        for key, value in self.details.items():
            if value is not None and not isinstance(value, (bool, int, float, str)):
                raise ValidationError(
                    f"Transition detail {key!r} must be a JSON scalar, got "
                    f"{type(value).__name__} (the audit trail must replay "
                    "bit-identically through the manifest)"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event": self.event,
            "step": self.step,
            "n_seen": self.n_seen,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MitigationTransition":
        return cls(
            event=data["event"],
            step=int(data["step"]),
            n_seen=int(data["n_seen"]),
            details=dict(data.get("details") or {}),
        )


@dataclass(frozen=True)
class ThresholdCalibration:
    """Outcome of :func:`calibrate_thresholds` on a control replay.

    ``thresholds`` is the calibrated config; ``empirical_false_alarm_rate``
    is the rate those thresholds achieve on the calibration traffic itself.
    The guarantee is one-sided (the documented slack): the empirical rate is
    **at most** the target — thresholds are placed so at most
    ``floor(target * n_eligible_steps)`` calibration steps alarm — and can
    sit below it when the per-channel statistics of the borderline steps
    are not separable.
    """

    thresholds: MonitorThresholds
    target_false_alarm_rate: float
    empirical_false_alarm_rate: float
    n_steps: int
    n_eligible_steps: int
    n_allowed_alarms: int
    channel_cutoffs: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "thresholds": self.thresholds.to_dict(),
            "target_false_alarm_rate": self.target_false_alarm_rate,
            "empirical_false_alarm_rate": self.empirical_false_alarm_rate,
            "n_steps": self.n_steps,
            "n_eligible_steps": self.n_eligible_steps,
            "n_allowed_alarms": self.n_allowed_alarms,
            "channel_cutoffs": dict(self.channel_cutoffs),
        }


# --------------------------------------------------------------------------
# threshold calibration
# --------------------------------------------------------------------------


def calibrate_thresholds(
    monitor: FairnessMonitor,
    control_batches,
    *,
    target_false_alarm_rate: float = 0.05,
) -> ThresholdCalibration:
    """Derive alarm thresholds from a control replay at a target false-alarm rate.

    Parameters
    ----------
    monitor:
        A configured :class:`FairnessMonitor` whose *baselines are already
        fixed* — its channels (profile, density estimator, group baseline)
        define which thresholds are calibrated; its current
        ``min_violation`` / ``min_samples`` are carried over unchanged.
        The monitor itself is not touched: calibration replays through a
        :meth:`~FairnessMonitor.config_clone`.
    control_batches:
        Iterable of drift-free traffic batches — anything exposing ``X``
        and ``group`` row arrays per item, e.g. a
        :class:`~repro.simulate.TrafficStream` built without a scenario.
        Predictions are irrelevant to the drift channels, so none are made.
    target_false_alarm_rate:
        Desired fraction of calibration steps that may alarm (jointly,
        across all active channels).  The achieved rate is at most this
        (see :class:`ThresholdCalibration` for the slack direction).

    Returns
    -------
    ThresholdCalibration
        Carrying the calibrated :class:`MonitorThresholds` — construct the
        production monitor with ``FairnessMonitor(thresholds=...)`` (the
        object round-trips through ``state_dict`` and artifacts).
    """
    if not 0.0 <= target_false_alarm_rate < 1.0:
        raise ValidationError("target_false_alarm_rate must be in [0, 1)")
    base = monitor.baselines
    probe = monitor.config_clone()
    min_samples = probe.thresholds.min_samples

    # Per eligible step, the raw statistic each active channel would compare
    # against its threshold: windowed mean violation, log-density drop,
    # minority-fraction shift.
    observed: List[Dict[str, float]] = []
    n_steps = 0
    for batch in control_batches:
        X = np.asarray(batch.X, dtype=np.float64)
        group = np.asarray(batch.group).ravel() if batch.group is not None else None
        probe.update(np.zeros(X.shape[0], dtype=np.int64), group, X=X)
        n_steps += 1
        stats: Dict[str, float] = {}
        if probe.profile is not None and base.violation is not None:
            status = probe.drift_status()
            if status.n_scored >= min_samples:
                stats["conformance"] = status.mean_violation
        if probe.density_estimator is not None and base.log_density is not None:
            status = probe.density_status()
            if status.n_scored >= min_samples and status.drop is not None:
                stats["density"] = status.drop
        if base.group_fraction is not None:
            status = probe.group_status()
            if status.n_scored >= min_samples and status.shift is not None:
                stats["group"] = status.shift
        if stats:
            observed.append(stats)
    if not observed:
        raise ValidationError(
            "calibrate_thresholds saw no eligible control steps: the replay "
            "must be long enough for at least one window to reach min_samples "
            "on some active channel (and the monitor needs fixed baselines)"
        )

    n_eligible = len(observed)
    n_allowed = int(target_false_alarm_rate * n_eligible)

    # Rank every step by how extreme its worst channel is *within that
    # channel's own distribution* (cross-channel statistics are not
    # comparable in raw units).  The n_allowed most extreme steps are the
    # only ones permitted to alarm; each channel's cutoff is then the
    # largest statistic any non-permitted step showed, so — alarms being
    # strict inequalities — no other step can fire on any channel.
    channels = sorted({name for stats in observed for name in stats})
    ranks: List[float] = []
    per_channel: Dict[str, List[float]] = {
        name: sorted(stats[name] for stats in observed if name in stats)
        for name in channels
    }
    for stats in observed:
        score = 0.0
        for name, value in stats.items():
            pool = per_channel[name]
            score = max(score, bisect.bisect_left(pool, value) / len(pool))
        ranks.append(score)
    order = sorted(range(n_eligible), key=lambda i: (-ranks[i], -i))
    allowed = set(order[:n_allowed])

    cutoffs: Dict[str, float] = {}
    for name in channels:
        disallowed = [
            observed[i][name]
            for i in range(n_eligible)
            if i not in allowed and name in observed[i]
        ]
        pool = disallowed if disallowed else per_channel[name]
        cutoffs[name] = float(max(pool))

    current = monitor.thresholds
    updates: Dict[str, float] = {}
    if "conformance" in cutoffs and base.violation is not None and base.violation > 0:
        updates["drift_factor"] = max(cutoffs["conformance"] / base.violation, 1e-9)
    if "density" in cutoffs:
        updates["density_drop"] = max(cutoffs["density"], 1e-9)
    if "group" in cutoffs:
        updates["group_tolerance"] = min(max(cutoffs["group"], 1e-9), 1.0)
    calibrated = current.replace(**updates)

    # Empirical check against the recorded statistics, with the calibrated
    # monitor's exact alarm predicates.
    def step_alarms(stats: Dict[str, float]) -> bool:
        if "conformance" in stats and base.violation is not None:
            if stats["conformance"] > calibrated.violation_threshold(base.violation):
                return True
        if "density" in stats and stats["density"] > calibrated.density_drop:
            return True
        return "group" in stats and stats["group"] > calibrated.group_tolerance

    n_alarms = sum(1 for stats in observed if step_alarms(stats))
    return ThresholdCalibration(
        thresholds=calibrated,
        target_false_alarm_rate=float(target_false_alarm_rate),
        empirical_false_alarm_rate=n_alarms / n_eligible,
        n_steps=n_steps,
        n_eligible_steps=n_eligible,
        n_allowed_alarms=n_allowed,
        channel_cutoffs=cutoffs,
    )


# --------------------------------------------------------------------------
# the controller
# --------------------------------------------------------------------------


class MitigationController:
    """Self-healing front end: serve, watch, refit, shadow-score, promote.

    Speaks the same protocol as :class:`PredictionService` — ``predict`` /
    ``monitor`` / ``stats`` / ``telemetry`` / ``close`` — so a
    :class:`~repro.simulate.ReplayHarness` (or any caller) can drive it as a
    drop-in replacement; ``stats`` accumulates across promotions, and
    ``monitor`` always exposes the *currently serving* model's monitor.

    Parameters
    ----------
    service:
        The primary :class:`PredictionService`; must carry a
        :class:`FairnessMonitor` with fixed baselines (the alarms drive the
        loop).  The controller owns it from here on — ``close`` closes it,
        and a promotion closes and replaces it.
    intervention, learner, intervention_params, fit_n_jobs, seed:
        Refit recipe, forwarded verbatim to
        :class:`~repro.interventions.FairnessPipeline` over the buffered
        drifted window.
    n_numeric_features:
        Leading numeric columns of the traffic (defaults to the primary
        monitor's setting); the refit window :class:`Dataset` and the
        shadow monitor's density refit need it.
    min_refit_rows:
        Labelled rows that must be buffered before a refit is attempted; at
        most :data:`BUFFER_ROWS`, the bound on the labelled-row buffer.
    min_shadow_steps, max_shadow_steps:
        A candidate is scored only after ``min_shadow_steps`` shadow updates
        and rejected after ``max_shadow_steps`` without promotion.
        Promotion requires the shadow's windowed DI* within
        :data:`DI_TOLERANCE` of the last healthy DI* and its balanced
        accuracy within :data:`ACCURACY_TOLERANCE` of the last healthy level.
    cooldown_steps:
        Steps after a promotion/rejection during which alarms are ignored
        (mixed windows legitimately stay alarmed while drifted rows age
        out).
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; defaults to the
        primary service's registry.
    """

    def __init__(
        self,
        service: PredictionService,
        *,
        intervention: str = "confair",
        learner: str = "lr",
        intervention_params: Optional[Dict[str, Any]] = None,
        fit_n_jobs: Optional[int] = None,
        seed: int = 7,
        n_numeric_features: Optional[int] = None,
        min_refit_rows: int = 400,
        min_shadow_steps: int = 5,
        max_shadow_steps: int = 25,
        cooldown_steps: int = 5,
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        if service.monitor is None:
            raise ValidationError(
                "MitigationController needs a PredictionService with a "
                "FairnessMonitor attached; construct the service with monitor="
            )
        if min_refit_rows < 1:
            raise ValidationError("min_refit_rows must be at least 1")
        if min_refit_rows > BUFFER_ROWS:
            raise ValidationError(
                f"min_refit_rows must be at most BUFFER_ROWS ({BUFFER_ROWS}), "
                f"the bound on the labelled-row buffer; got {min_refit_rows}"
            )
        if min_shadow_steps < 1:
            raise ValidationError("min_shadow_steps must be at least 1")
        if max_shadow_steps < min_shadow_steps:
            raise ValidationError("max_shadow_steps must be at least min_shadow_steps")
        if cooldown_steps < 0:
            raise ValidationError("cooldown_steps must be non-negative")
        self.service = service
        self.intervention = intervention
        self.learner = learner
        self.intervention_params = dict(intervention_params or {})
        self.fit_n_jobs = fit_n_jobs
        self.seed = int(seed)
        self.n_numeric_features = (
            n_numeric_features
            if n_numeric_features is not None
            else service.monitor.n_numeric_features
        )
        self.min_refit_rows = int(min_refit_rows)
        self.min_shadow_steps = int(min_shadow_steps)
        self.max_shadow_steps = int(max_shadow_steps)
        self.cooldown_steps = int(cooldown_steps)
        self.telemetry = telemetry if telemetry is not None else service.telemetry

        self.state = "monitoring"
        self.stats = ServiceStats()
        self.transitions: List[MitigationTransition] = []
        self.n_promotions = 0
        self.n_rejections = 0
        self._step = 0
        self._cooldown = 0
        self._healthy_di: Optional[float] = None
        self._healthy_bacc: Optional[float] = None
        self._shadow: Optional[PredictionService] = None
        self._shadow_steps = 0
        self._buffer: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._buffer_count = 0
        self._lock = threading.Lock()
        self._m_transitions = {
            event: self.telemetry.counter(f"mitigation.{event}s_total")
            for event in TRANSITION_EVENTS
        }
        self._m_refit_seconds = self.telemetry.histogram("mitigation.refit_seconds")

    # ----------------------------------------------------------- protocol
    @property
    def monitor(self) -> FairnessMonitor:
        """The currently serving model's monitor (swapped on promotion)."""
        return self.service.monitor

    @property
    def events(self):
        """The primary service's flight recorder (swapped on promotion)."""
        return self.service.events

    def close(self) -> None:
        """Close the primary service and any in-flight shadow candidate."""
        with self._lock:
            shadow, self._shadow = self._shadow, None
        if shadow is not None:
            shadow.close()
        self.service.close()

    def __enter__(self) -> "MitigationController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ serving
    def predict(self, X, group=None, *, y_true=None, sequence=None) -> np.ndarray:
        """Serve one request through the primary model and advance the loop.

        Returns the *primary* model's predictions always — a shadow
        candidate sees the same request but its predictions never leave the
        controller.  One ``predict`` call is one controller step.
        """
        start = time.perf_counter()
        predictions = self.service.predict(X, group, y_true=y_true, sequence=sequence)
        elapsed = time.perf_counter() - start
        rows = int(predictions.shape[0])
        # The controller keeps its own cumulative stats: a promotion swaps
        # the primary service (whose stats restart at zero), but the loop's
        # caller sees one uninterrupted serving history.
        with self._lock:
            self._step += 1
            self.stats.n_requests += 1
            self.stats.n_records += rows
            self.stats.total_seconds += elapsed
            self._buffer_batch(X, group, y_true)
            self._advance(X, group, y_true)
        return predictions

    # -------------------------------------------------------- state machine
    def _buffer_batch(self, X, group, y_true) -> None:
        if group is None or y_true is None:
            return
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        self._buffer.append(
            (X, np.asarray(y_true).ravel(), np.asarray(group).ravel())
        )
        self._buffer_count += X.shape[0]
        while self._buffer_count - self._buffer[0][0].shape[0] >= BUFFER_ROWS:
            dropped, *_ = self._buffer.pop(0)
            self._buffer_count -= dropped.shape[0]

    def _record(self, event: str, **details: Any) -> None:
        transition = MitigationTransition(
            event=event,
            step=self._step,
            n_seen=int(self.monitor.n_seen),
            details=details,
        )
        self.transitions.append(transition)
        if self.telemetry.enabled:
            self._m_transitions[event].inc()
            with self.telemetry.span("mitigation.transition", event=event, step=self._step):
                pass
        events = getattr(self.service, "events", None)
        events = events if events is not None else get_event_log()
        if events.enabled:
            # Transition details stay JSON scalars (the audit-trail contract);
            # the full per-channel attribution rides a channel_snapshot event
            # at the same sequence stamp, so the trail and the flight recorder
            # correlate exactly.
            sequence = int(self.monitor.last_sequence)
            events.emit(
                "mitigation_transition",
                sequence=sequence,
                event=event,
                step=self._step,
                n_seen=int(self.monitor.n_seen),
                details=dict(details),
            )
            events.emit(
                "channel_snapshot",
                sequence=sequence,
                trigger=f"mitigation:{event}",
                step=self._step,
                report=self.monitor.alarm_report(),
            )

    def _windowed_health(self, monitor: FairnessMonitor):
        """(di_star, balanced_accuracy) of a monitor's window, where computable."""
        di = monitor.windowed_summary().get("di_star")
        try:
            bacc: Optional[float] = monitor.windowed_report().balanced_accuracy
        except ReproError:
            # Unlabelled or one-group windows cannot produce a full report.
            bacc = None
        return di, bacc

    def _advance(self, X, group, y_true) -> None:
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        if self.state == "monitoring":
            channels = self.monitor.alarmed_channels()
            if channels:
                self._record(
                    "alarm",
                    channels=",".join(channels),
                    healthy_di_star=self._healthy_di,
                    healthy_balanced_accuracy=self._healthy_bacc,
                )
                # The alarm marks a regime change: rows buffered before it
                # belong to the old regime and would drag the refit (and the
                # shadow monitor's re-anchored baselines) back toward the
                # stale distribution.  Refit on post-alarm traffic only.
                self._buffer.clear()
                self._buffer_count = 0
                self.state = "alarmed"
            else:
                di, bacc = self._windowed_health(self.monitor)
                if di is not None:
                    self._healthy_di = float(di)
                if bacc is not None:
                    self._healthy_bacc = float(bacc)
                return
        if self.state == "alarmed":
            if self._buffer_count >= self.min_refit_rows:
                self._attempt_refit()
            return
        if self.state == "shadowing":
            self._shadow_step(X, group, y_true)

    def _window_dataset(self) -> Dataset:
        X = np.concatenate([chunk for chunk, _, _ in self._buffer])
        y = np.concatenate([labels for _, labels, _ in self._buffer])
        group = np.concatenate([members for _, _, members in self._buffer])
        return Dataset(
            X=X,
            y=y.astype(np.int64),
            group=group.astype(np.int64),
            n_numeric_features=self.n_numeric_features,
            name="mitigation-window",
        )

    def _attempt_refit(self) -> None:
        # Imported lazily: interventions.pipeline is a heavier layer than
        # serving, and only refits need it.
        from repro.interventions.pipeline import FairnessPipeline

        start = time.perf_counter()
        try:
            with self.telemetry.span(
                "mitigation.refit",
                intervention=self.intervention,
                learner=self.learner,
                rows=self._buffer_count,
            ):
                window = self._window_dataset()
                split = split_dataset(window, random_state=self.seed)
                result = FairnessPipeline(
                    intervention=self.intervention,
                    learner=self.learner,
                    dataset=split,
                    seed=self.seed,
                    intervention_params=dict(self.intervention_params),
                    fit_n_jobs=self.fit_n_jobs,
                ).run()
        except ReproError as error:
            self._record(
                "refit_failed",
                error=f"{type(error).__name__}: {error}",
                rows=self._buffer_count,
            )
            # Back off before retrying so a structurally unsplittable window
            # does not refit on every subsequent request.
            self._cooldown = self.cooldown_steps
            return
        if self.telemetry.enabled:
            self._m_refit_seconds.observe(time.perf_counter() - start)
        self._record(
            "refit",
            intervention=self.intervention,
            learner=self.learner,
            rows=self._buffer_count,
            refit_di_star=float(result.report.di_star),
            refit_balanced_accuracy=float(result.report.balanced_accuracy),
        )
        self._start_shadow(result, split)

    def _start_shadow(self, result, split) -> None:
        primary_monitor = self.monitor
        density = None
        if primary_monitor.density_estimator is not None:
            # Re-anchor the density channel on the drifted regime: clone the
            # primary KDE's configuration, fit on the window's train rows.
            density = KernelDensity(
                **primary_monitor.density_estimator.get_params()
            ).fit(split.train.numeric_X)
        shadow_monitor = FairnessMonitor(
            window_size=primary_monitor.window_size,
            profile=find_profile(result),
            density_estimator=density,
            n_numeric_features=primary_monitor.n_numeric_features,
            thresholds=primary_monitor.thresholds,
        )
        # Fresh baselines from the drifted window: the candidate must look
        # healthy *in the new regime*, not relative to the stale fit.
        if shadow_monitor.profile is not None:
            shadow_monitor.set_baselines(violation=split.train.X)
        if density is not None:
            shadow_monitor.set_baselines(log_density=split.validation.X)
        shadow_monitor.set_baselines(group_fraction=float(split.train.minority_fraction))
        # The shadow records into a private registry so its internal
        # predictions never inflate the serving counters callers scrape.
        self._shadow = PredictionService(
            result,
            batch_size=self.service.batch_size,
            monitor=shadow_monitor,
            telemetry=MetricsRegistry(enabled=self.telemetry.enabled),
        )
        self._shadow_steps = 0
        self._record(
            "shadow_start",
            intervention=self.intervention,
            learner=self.learner,
            window_size=primary_monitor.window_size,
        )
        self.state = "shadowing"

    def _shadow_step(self, X, group, y_true) -> None:
        shadow = self._shadow
        if shadow is None:  # pragma: no cover - defensive
            self.state = "monitoring"
            return
        shadow.predict(X, group, y_true=y_true)
        self._shadow_steps += 1
        if self._shadow_steps < self.min_shadow_steps:
            return
        shadow_di, shadow_bacc = self._windowed_health(shadow.monitor)
        di_ok = shadow_di is not None and (
            self._healthy_di is None or shadow_di >= self._healthy_di - DI_TOLERANCE
        )
        bacc_ok = (
            self._healthy_bacc is None
            or shadow_bacc is None
            or shadow_bacc >= self._healthy_bacc - ACCURACY_TOLERANCE
        )
        calm = not shadow.monitor.alarmed_channels()
        if di_ok and bacc_ok and calm:
            self._promote(shadow_di, shadow_bacc)
        elif self._shadow_steps >= self.max_shadow_steps:
            self._reject(shadow_di, shadow_bacc)

    def _promote(self, shadow_di, shadow_bacc) -> None:
        self._record(
            "promote",
            shadow_steps=self._shadow_steps,
            shadow_di_star=shadow_di,
            shadow_balanced_accuracy=shadow_bacc,
            healthy_di_star=self._healthy_di,
            healthy_balanced_accuracy=self._healthy_bacc,
        )
        old, self.service = self.service, self._shadow
        self._shadow = None
        old.close()
        self.n_promotions += 1
        self.state = "monitoring"
        self._cooldown = self.cooldown_steps
        # The promoted model's own window restates what healthy means.
        self._healthy_di = None
        self._healthy_bacc = None

    def _reject(self, shadow_di, shadow_bacc) -> None:
        self._record(
            "reject",
            shadow_steps=self._shadow_steps,
            shadow_di_star=shadow_di,
            shadow_balanced_accuracy=shadow_bacc,
            healthy_di_star=self._healthy_di,
            healthy_balanced_accuracy=self._healthy_bacc,
        )
        shadow, self._shadow = self._shadow, None
        if shadow is not None:
            shadow.close()
        self.n_rejections += 1
        self.state = "monitoring"
        self._cooldown = self.cooldown_steps


# --------------------------------------------------------------------------
# audit-trail persistence
# --------------------------------------------------------------------------


def save_audit_trail(
    source,
    path,
    *,
    metadata: Optional[Dict[str, Any]] = None,
):
    """Persist a mitigation audit trail as a schema-versioned artifact.

    ``source`` is a :class:`MitigationController` or a sequence of
    :class:`MitigationTransition`.  The trail is stored inside a standard
    artifact directory (manifest + payload), so :func:`load_audit_trail`
    restores it bit-identically — every step index, event, and detail value
    compares equal to the original.
    """
    transitions = source.transitions if isinstance(source, MitigationController) else source
    payload = {
        "mitigation_schema_version": MITIGATION_SCHEMA_VERSION,
        "transitions": [
            transition.to_dict()
            for transition in transitions
        ],
    }
    return save_artifact(
        payload,
        path,
        metadata={"kind": "mitigation_audit", **dict(metadata or {})},
    )


def load_audit_trail(path) -> List[MitigationTransition]:
    """Load an audit trail saved by :func:`save_audit_trail`."""
    loaded = load_artifact(path)
    if not isinstance(loaded, dict) or "transitions" not in loaded:
        raise ArtifactError(
            f"Artifact at {path} does not contain a mitigation audit trail"
        )
    version = loaded.get("mitigation_schema_version")
    if version != MITIGATION_SCHEMA_VERSION:
        raise ArtifactError(
            f"Audit trail at {path} has mitigation schema version {version!r}; "
            f"this build supports version {MITIGATION_SCHEMA_VERSION}"
        )
    return [MitigationTransition.from_dict(entry) for entry in loaded["transitions"]]


def summarize_transitions(
    transitions: Sequence[MitigationTransition],
) -> Dict[str, Any]:
    """Compact JSON summary of an audit trail (event counts + verdict)."""
    counts = {event: 0 for event in TRANSITION_EVENTS}
    for transition in transitions:
        counts[transition.event] += 1
    promote_step = next(
        (t.step for t in transitions if t.event == "promote"), None
    )
    return {
        "n_transitions": len(transitions),
        "events": counts,
        "promoted": counts["promote"] > 0,
        "first_promote_step": promote_step,
    }
