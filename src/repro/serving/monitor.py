"""Online fairness and drift monitoring of served traffic.

The paper frames unfairness as a *data drift* problem: the minority's tuples
follow a different distribution than the majority's, and a deployed model's
fairness degrades exactly when the serving distribution drifts relative to
the profiled training partitions.  :class:`FairnessMonitor` operationalizes
both halves of that framing for a live service:

* **fairness over a sliding window** — DI*, AOD*, and balanced accuracy
  computed incrementally from :class:`~repro.fairness.streaming.StreamCounts`
  (integer sufficient statistics, so window eviction is subtraction and the
  windowed report is bit-identical to the offline
  :func:`~repro.fairness.evaluate_predictions` on the same rows);
* **conformance-violation drift** — every observed tuple is scored against
  the training-time conformance constraints (the same
  :class:`~repro.core.partitions.PartitionProfile` DiffFair routes by); a
  windowed mean violation well above the fit-time baseline means the serving
  data no longer conforms to any training partition, and the monitor raises
  a drift alarm before the fairness metrics (which need labels) can react;
* **density drift** (optional) — when the monitor holds a fitted
  :class:`~repro.density.KernelDensity`, every observed batch is scored in
  one vectorized ``score_samples`` pass (the batch density engine — no
  per-row work on the serving hot path) and the windowed mean log-density is
  compared against the fit-time baseline: traffic sliding into low-density
  regions of the training distribution is the soft, early version of the
  conformance signal;
* **group-prevalence drift** (optional) — a prevalence shift moves the group
  *mix* of the traffic while every individual tuple stays perfectly
  conformant, so neither per-tuple channel can see it; once
  :meth:`FairnessMonitor.set_baselines` fixes the training-time minority
  fraction, the windowed minority fraction is compared against it and
  :meth:`FairnessMonitor.group_status` flags mixes that moved beyond the
  tolerance.

The monitor is **checkpointable**: it is a
:class:`~repro.learners.base.BaseEstimator` with a ``state_dict`` /
``load_state_dict`` pair covering the full sliding window (retained chunks,
window aggregates, baselines), and it is registered with
:func:`repro.serving.artifacts.register_serializable` — a long replay can be
paused into an artifact and resumed with bit-identical windowed reports and
alarm decisions.

The monitor is also **mergeable**: every update chunk carries a monotone
*sequence number* (self-assigned, or stamped globally by a
:class:`~repro.fleet.FleetService` fanning one stream across shards), window
float statistics are folded from the retained chunks in sequence order
(never carried as running add/subtract aggregates, whose value would depend
on evicted history), and :meth:`FairnessMonitor.merge` /
:meth:`FairnessMonitor.merge_state_dicts` reduce per-shard windows into one
monitor that is bit-identical — same ``state_dict``, reports, statuses, and
alarms — to a single monitor that observed the union stream.  Merging is
associative and order-invariant: chunks are reordered by sequence, every
monitor records its eviction horizon (the highest sequence it ever evicted
— anything below it is provably union-evicted, since front-first eviction
drops a time-prefix), and the merge replay discards chunks below the
combined horizon before evicting afresh, so any merge tree converges to the
same state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Any, Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.partitions import PartitionProfile
from repro.density.kde import KernelDensity
from repro.exceptions import ValidationError
from repro.fairness.report import FairnessReport
from repro.fairness.streaming import (
    StreamCounts,
    fold_disparate_impact,
    report_from_counts,
)
from repro.learners.base import BaseEstimator

LOG_DENSITY_FLOOR = -700.0
"""Clamp for ``-inf`` log-densities (zero density under a compact kernel):
``exp(-700)`` sits just above the smallest positive double, so a clamped
window mean stays finite while still signalling maximal drift."""


@dataclass(frozen=True)
class DriftStatus:
    """Snapshot of the conformance-drift alarm.

    ``ratio`` is the windowed mean violation over the baseline (``inf`` when
    the baseline is zero and violations are observed); ``alarm`` is set once
    enough scored samples are in the window and the mean violation exceeds
    ``max(drift_factor * baseline, min_violation)``.
    """

    n_scored: int
    mean_violation: float
    baseline_violation: Optional[float]
    ratio: Optional[float]
    alarm: bool


@dataclass(frozen=True)
class DensityDriftStatus:
    """Snapshot of the density-drift signal.

    ``drop`` is how far (in nats) the windowed mean log-density sits below
    the fit-time baseline; ``alarm`` fires once enough scored samples are in
    the window and the drop exceeds the configured ``density_drop``.
    """

    n_scored: int
    mean_log_density: float
    baseline_log_density: Optional[float]
    drop: Optional[float]
    alarm: bool


@dataclass(frozen=True)
class GroupShiftStatus:
    """Snapshot of the group-prevalence drift signal.

    ``shift`` is the absolute difference between the windowed minority
    fraction and the baseline fraction; ``alarm`` fires once enough
    group-carrying samples are in the window and the shift exceeds the
    configured ``group_tolerance``.
    """

    n_scored: int
    minority_fraction: float
    baseline_fraction: Optional[float]
    shift: Optional[float]
    alarm: bool


@dataclass(frozen=True)
class MonitorThresholds:
    """The monitor's alarm thresholds as one validated, immutable config object.

    This is how :class:`FairnessMonitor` takes its thresholds, and the value
    :func:`repro.serving.mitigation.calibrate_thresholds` returns, so a
    calibrated configuration can be passed around, persisted in artifacts,
    and handed to ``FairnessMonitor(thresholds=...)`` as a single object.

    Fields mirror the monitor's semantics: ``drift_factor`` (alarm when the
    windowed mean violation exceeds this multiple of the baseline),
    ``min_violation`` (absolute floor for that threshold), ``min_samples``
    (scored observations required before any alarm may fire),
    ``density_drop`` (nats the windowed mean log-density must fall below the
    baseline), and ``group_tolerance`` (absolute minority-fraction shift
    tolerated).
    """

    drift_factor: float = 3.0
    min_violation: float = 0.05
    min_samples: int = 50
    density_drop: float = 1.0
    group_tolerance: float = 0.15

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift_factor", float(self.drift_factor))
        object.__setattr__(self, "min_violation", float(self.min_violation))
        object.__setattr__(self, "min_samples", int(self.min_samples))
        object.__setattr__(self, "density_drop", float(self.density_drop))
        object.__setattr__(self, "group_tolerance", float(self.group_tolerance))
        if self.drift_factor <= 0:
            raise ValidationError("drift_factor must be positive")
        if self.min_violation < 0:
            raise ValidationError("min_violation must be non-negative")
        if self.min_samples < 1:
            raise ValidationError("min_samples must be at least 1")
        if self.density_drop <= 0:
            raise ValidationError("density_drop must be positive")
        if not 0.0 < self.group_tolerance <= 1.0:
            raise ValidationError("group_tolerance must be in (0, 1]")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-scalar dict form (JSON- and artifact-friendly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MonitorThresholds":
        """Rebuild from :meth:`to_dict` output, rejecting unknown keys."""
        fields = ("drift_factor", "min_violation", "min_samples", "density_drop", "group_tolerance")
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ValidationError(
                f"MonitorThresholds does not accept: {', '.join(map(repr, unknown))}"
            )
        return cls(**{key: data[key] for key in fields if key in data})

    def replace(self, **changes: Any) -> "MonitorThresholds":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class MonitorBaselines:
    """The monitor's drift reference points as one immutable record.

    Each field is a *precomputed scalar* — ``violation`` (fit-time mean
    conformance violation), ``log_density`` (fit-time mean log-density), and
    ``group_fraction`` (training minority fraction) — with ``None`` meaning
    "leave that channel's baseline untouched / unset".  Produced by
    :attr:`FairnessMonitor.baselines` and consumed by
    :meth:`FairnessMonitor.set_baselines`, which also accepts raw arrays per
    channel and scores them itself.
    """

    violation: Optional[float] = None
    log_density: Optional[float] = None
    group_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("violation", "log_density", "group_fraction"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        if self.group_fraction is not None and not 0.0 <= self.group_fraction <= 1.0:
            raise ValidationError("the baseline minority fraction must be in [0, 1]")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-scalar dict form (JSON- and artifact-friendly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MonitorBaselines":
        """Rebuild from :meth:`to_dict` output, rejecting unknown keys."""
        fields = ("violation", "log_density", "group_fraction")
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ValidationError(
                f"MonitorBaselines does not accept: {', '.join(map(repr, unknown))}"
            )
        return cls(**{key: data[key] for key in fields if key in data})


class FairnessMonitor(BaseEstimator):
    """Sliding-window fairness metrics plus conformance/density/group drift alarms.

    Parameters
    ----------
    window_size:
        Target number of most-recent observations retained.  Eviction is
        chunk-granular (whole update batches are dropped oldest-first once
        the total exceeds the window), which keeps updates O(1).
    profile:
        Optional :class:`PartitionProfile` (e.g. ``DiffFair.profile_`` or the
        output of :func:`repro.core.profile_partitions`).  When provided,
        every observed feature batch is scored for conformance violation and
        the drift alarm becomes active.
    density_estimator:
        Optional *fitted* :class:`~repro.density.KernelDensity` (typically
        fitted on the training data's numeric columns).  When provided,
        every observed feature batch is scored through the batch density
        engine and the density-drift signal becomes active.
    n_numeric_features:
        How many leading feature columns are numeric (what the constraints
        and the density estimator profile).  Defaults to the width the
        profile's constraints (or the density estimator) expect.
    thresholds:
        The alarm thresholds as one :class:`MonitorThresholds` config object
        (defaults when ``None``) — what
        :func:`repro.serving.mitigation.calibrate_thresholds` returns.
    """

    def __init__(
        self,
        window_size: int = 5000,
        *,
        profile: Optional[PartitionProfile] = None,
        density_estimator: Optional[KernelDensity] = None,
        n_numeric_features: Optional[int] = None,
        thresholds: Optional[MonitorThresholds] = None,
    ) -> None:
        if window_size < 1:
            raise ValidationError("window_size must be at least 1")
        if density_estimator is not None and not hasattr(density_estimator, "training_data_"):
            raise ValidationError(
                "density_estimator must be a fitted KernelDensity (call fit() first)"
            )
        if thresholds is None:
            thresholds = MonitorThresholds()
        elif not isinstance(thresholds, MonitorThresholds):
            raise ValidationError(
                "thresholds must be a MonitorThresholds instance, got "
                f"{type(thresholds).__name__}"
            )
        self.window_size = int(window_size)
        self.profile = profile
        self.density_estimator = density_estimator
        self.n_numeric_features = n_numeric_features
        self.thresholds = thresholds

        # Per retained batch: (counts, batch size, violation sum, violation
        # rows, log-density sum, log-density rows, sequence number).  The
        # integer aggregates below are running (integer add/subtract is
        # exact); the float window sums are *folded from the chunks* on
        # demand so their value depends only on the retained window, never
        # on the add/subtract history of evicted chunks — the property that
        # makes shard merging bit-identical.
        self._chunks: Deque[Tuple[StreamCounts, int, float, int, float, int, int]] = deque()
        self._window_counts = StreamCounts()
        self._window_rows = 0
        self._violation_rows = 0
        self._log_density_rows = 0
        self._next_sequence = 0
        # Highest sequence number ever evicted (-1 before any eviction): the
        # eviction horizon.  Merging drops chunks at or below any input's
        # horizon — a chunk one sub-monitor evicted would have been evicted
        # by the union stream too — which is what makes staged merges agree
        # with the monolithic one (see merge_state_dicts).
        self._evicted_through = -1
        self._baseline_violation: Optional[float] = None
        self._baseline_log_density: Optional[float] = None
        self._baseline_group_fraction: Optional[float] = None
        self.n_seen = 0

    # ----------------------------------------------------------- updating
    def update(self, y_pred, group=None, *, y_true=None, X=None, sequence=None) -> int:
        """Fold one served batch into the window; returns the batch's sequence.

        Parameters
        ----------
        y_pred:
            The predictions the service returned.
        group:
            Group membership per row — audit-time information the per-group
            fairness accounting needs (even for interventions that never
            read it at prediction time).  ``None`` is the genuinely
            group-blind case: the batch still counts toward the window and
            feeds the drift alarms (conformance and density scoring need
            only ``X``), but contributes nothing to the fairness metrics.
        y_true:
            Optional ground-truth labels (delayed labels are the norm in
            serving; windows mixing labelled and unlabelled traffic support
            :meth:`windowed_summary` but not the full report).
        X:
            Optional feature rows; scored for conformance violation when the
            monitor holds a profile and for log-density when it holds a
            density estimator.  Rows narrower than the scored numeric
            columns, or with NaN/inf in them, raise
            :class:`~repro.exceptions.ValidationError` and leave the monitor
            unchanged.
        sequence:
            Optional global position of this batch in the stream.  Left
            ``None`` (a single monitor consuming its own stream) the monitor
            self-assigns 0, 1, 2, …; a fleet front-end fanning one stream
            across shards stamps each dispatched batch with the stream-wide
            sequence instead, which is what lets :meth:`merge` reconstruct
            the union window in arrival order.

        Returns
        -------
        int
            The sequence stamp this batch was folded in under (the assigned
            value when ``sequence`` was ``None``) — what event-log emitters
            key their ``request`` events by.
        """
        counts = (
            StreamCounts.from_batch(y_pred, group, y_true)
            if group is not None
            else StreamCounts()
        )
        size = int(np.asarray(y_pred).ravel().shape[0])
        violation_sum, scored = 0.0, 0
        density_sum, density_scored = 0.0, 0
        if X is not None and self.profile is not None:
            violations = self.violation_scores(X)
            violation_sum = float(violations.sum())
            scored = int(violations.shape[0])
        if X is not None and self.density_estimator is not None:
            log_densities = self.log_density_scores(X)
            density_sum = float(log_densities.sum())
            density_scored = int(log_densities.shape[0])
        if sequence is None:
            sequence = self._next_sequence
        else:
            sequence = int(sequence)
            if sequence < 0:
                raise ValidationError("sequence numbers must be non-negative")
        self._next_sequence = max(self._next_sequence, sequence + 1)
        self._chunks.append(
            (counts, size, violation_sum, scored, density_sum, density_scored, sequence)
        )
        self._window_counts += counts
        self._window_rows += size
        self._violation_rows += scored
        self._log_density_rows += density_scored
        self.n_seen += size
        self._evict()
        return sequence

    def _evict(self) -> None:
        while self._window_rows > self.window_size and len(self._chunks) > 1:
            counts, size, _, scored, _, density_scored, sequence = self._chunks.popleft()
            self._window_counts -= counts
            self._window_rows -= size
            self._violation_rows -= scored
            self._log_density_rows -= density_scored
            if sequence > self._evicted_through:
                self._evicted_through = sequence

    def _fold_window_sums(self) -> Tuple[float, float]:
        """Window float sums folded left-to-right over the retained chunks.

        Identical chunk deques fold to identical floats, so a merged monitor
        whose replayed deque matches the union monitor's reports the same
        means bit for bit — the determinism running aggregates cannot offer
        (their value carries the add/subtract history of evicted chunks).
        The deque is short (window_size / batch size entries), so the fold is
        a negligible O(#chunks) per status call.
        """
        violation_sum = 0.0
        density_sum = 0.0
        for _, _, chunk_violation, _, chunk_density, _, _ in self._chunks:
            violation_sum += chunk_violation
            density_sum += chunk_density
        return violation_sum, density_sum

    # -------------------------------------------------------------- drift
    def _numeric_columns(self, X, width_default: Optional[int]) -> np.ndarray:
        """The leading numeric columns a channel scores; a narrower ``X`` is a
        :class:`~repro.exceptions.ValidationError`, raised before any state
        changes."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        width = self.n_numeric_features
        if width is None:
            width = X.shape[-1] if width_default is None else width_default
        if X.shape[-1] < width:
            raise ValidationError(
                f"X has {X.shape[-1]} columns; the monitor scores its first {width} "
                "numeric columns"
            )
        return X[:, :width]

    def violation_scores(self, X) -> np.ndarray:
        """Per-row conformance violation against the *closest* training partition.

        A tuple that conforms to any (group, label) partition of the training
        data scores ~0; tuples conforming to none score high — the paper's
        signature of drift.
        """
        if self.profile is None:
            raise ValidationError("FairnessMonitor has no partition profile to score against")
        numeric = self._numeric_columns(X, self.profile.n_features)
        return self.profile.group_violations(numeric).min(axis=1)

    def log_density_scores(self, X) -> np.ndarray:
        """Per-row log-density of the observed tuples under the training KDE.

        One batch ``score_samples`` call — the vectorized density engine —
        with ``-inf`` (zero density under a compact kernel) clamped to
        :data:`LOG_DENSITY_FLOOR` so window sums stay finite.
        """
        if self.density_estimator is None:
            raise ValidationError("FairnessMonitor has no density estimator to score with")
        numeric = self._numeric_columns(X, int(self.density_estimator.n_features_))
        scores = self.density_estimator.score_samples(numeric)
        return np.maximum(scores, LOG_DENSITY_FLOOR)

    def _resolve_drift_baseline(self, X) -> float:
        if np.isscalar(X):
            return float(X)
        return float(self.violation_scores(X).mean())

    def _resolve_density_baseline(self, X) -> float:
        if np.isscalar(X):
            return float(X)
        return float(self.log_density_scores(X).mean())

    def _resolve_group_baseline(self, group_or_fraction) -> float:
        if np.isscalar(group_or_fraction):
            baseline = float(group_or_fraction)
        else:
            group = np.asarray(group_or_fraction).ravel()
            if group.size == 0:
                raise ValidationError("group baseline needs at least one row")
            baseline = float(np.mean(group == 1))
        if not 0.0 <= baseline <= 1.0:
            raise ValidationError("the baseline minority fraction must be in [0, 1]")
        return baseline

    def set_baselines(
        self,
        baselines: Optional[MonitorBaselines] = None,
        *,
        violation=None,
        log_density=None,
        group_fraction=None,
    ) -> MonitorBaselines:
        """Fix the drift reference points in one call; returns the result.

        Accepts either a :class:`MonitorBaselines` of precomputed scalars
        (e.g. another monitor's :attr:`baselines`, or a suite runner's shared
        scores) *or* per-channel keyword values, where each value may be raw
        data the monitor scores itself — a feature matrix for ``violation``
        and ``log_density``, an array of 0/1 memberships or a float for
        ``group_fraction`` — or an already-computed scalar.  Channels left
        ``None`` keep their current baseline, so partial updates compose.
        """
        if baselines is not None:
            if not isinstance(baselines, MonitorBaselines):
                raise ValidationError(
                    "baselines must be a MonitorBaselines instance, got "
                    f"{type(baselines).__name__}"
                )
            if violation is not None or log_density is not None or group_fraction is not None:
                raise ValidationError(
                    "pass either a MonitorBaselines object or per-channel "
                    "values, not both"
                )
            if baselines.violation is not None:
                self._baseline_violation = baselines.violation
            if baselines.log_density is not None:
                self._baseline_log_density = baselines.log_density
            if baselines.group_fraction is not None:
                self._baseline_group_fraction = baselines.group_fraction
            return self.baselines
        if violation is not None:
            self._baseline_violation = self._resolve_drift_baseline(violation)
        if log_density is not None:
            self._baseline_log_density = self._resolve_density_baseline(log_density)
        if group_fraction is not None:
            self._baseline_group_fraction = self._resolve_group_baseline(group_fraction)
        return self.baselines

    @property
    def baselines(self) -> MonitorBaselines:
        """The currently fixed reference points (``None`` fields are unset)."""
        return MonitorBaselines(
            violation=self._baseline_violation,
            log_density=self._baseline_log_density,
            group_fraction=self._baseline_group_fraction,
        )

    @property
    def group_baseline_fraction(self) -> Optional[float]:
        """The fixed baseline minority fraction (``None`` until set)."""
        return self._baseline_group_fraction

    def config_clone(self) -> "FairnessMonitor":
        """An *empty* monitor sharing this monitor's configuration.

        The profile and density estimator are shared by reference (both are
        read-only at scoring time), not copied — this is the cheap way to
        stamp out per-shard monitors, and the target a fleet aggregator loads
        merged shard state into.  Baselines and window contents are not
        carried over.
        """
        return FairnessMonitor(
            window_size=self.window_size,
            profile=self.profile,
            density_estimator=self.density_estimator,
            n_numeric_features=self.n_numeric_features,
            thresholds=self.thresholds,
        )

    def drift_status(self) -> DriftStatus:
        """Current state of the conformance-drift alarm."""
        n = self._violation_rows
        violation_sum, _ = self._fold_window_sums()
        mean = violation_sum / n if n else 0.0
        baseline = self._baseline_violation
        if baseline is None:
            return DriftStatus(n, mean, None, None, False)
        if baseline > 0:
            ratio: Optional[float] = mean / baseline
        else:
            ratio = float("inf") if mean > 0 else 1.0
        thresholds = self.thresholds
        threshold = max(thresholds.drift_factor * baseline, thresholds.min_violation)
        alarm = n >= thresholds.min_samples and mean > threshold
        return DriftStatus(n, mean, baseline, ratio, alarm)

    def density_status(self) -> DensityDriftStatus:
        """Current state of the density-drift signal."""
        n = self._log_density_rows
        _, density_sum = self._fold_window_sums()
        mean = density_sum / n if n else 0.0
        baseline = self._baseline_log_density
        if baseline is None:
            return DensityDriftStatus(n, mean, None, None, False)
        drop = baseline - mean
        alarm = n >= self.thresholds.min_samples and drop > self.thresholds.density_drop
        return DensityDriftStatus(n, mean, baseline, drop, alarm)

    def group_status(self) -> GroupShiftStatus:
        """Current state of the group-prevalence drift signal.

        Only rows that carried group membership count (``n_scored``); the
        windowed minority fraction is their exact count ratio.
        """
        counts = self._window_counts
        n = counts.group_n(0) + counts.group_n(1)
        fraction = counts.group_n(1) / n if n else 0.0
        baseline = self._baseline_group_fraction
        if baseline is None:
            return GroupShiftStatus(n, fraction, None, None, False)
        shift = abs(fraction - baseline)
        alarm = n >= self.thresholds.min_samples and shift > self.thresholds.group_tolerance
        return GroupShiftStatus(n, fraction, baseline, shift, alarm)

    @property
    def last_sequence(self) -> int:
        """Highest sequence stamp folded into this monitor (-1 before any)."""
        return self._next_sequence - 1

    def alarm_report(self) -> Dict[str, Any]:
        """One attribution snapshot explaining the monitor's current alarms.

        Per active channel (``conformance`` when a profile is attached,
        ``density`` when a density estimator is, ``group`` when a group
        baseline is fixed): the windowed statistic, its baseline, the exact
        alarm threshold the status predicate compares against, the margin by
        which the statistic clears it (positive = alarming, assuming
        ``min_samples`` is met), the alarm verdict, and the scored count.
        Statistic/baseline/threshold values match :meth:`drift_status` /
        :meth:`density_status` / :meth:`group_status` exactly — the report is
        computed from the same status objects, not re-derived.

        Also carries the windowed sequence range (which stream positions the
        verdict was computed over — the join keys into the event log and the
        trace view), per-group windowed counts and selection rates, and the
        list of currently alarming channel names.  Every value is a JSON
        scalar or a flat dict of them, so the report rides event-log records
        and mitigation audit trails verbatim.
        """
        thresholds = self.thresholds
        channels: Dict[str, Dict[str, Any]] = {}
        if self.profile is not None:
            drift = self.drift_status()
            if drift.baseline_violation is None:
                threshold: Optional[float] = None
                margin: Optional[float] = None
            else:
                threshold = max(
                    thresholds.drift_factor * drift.baseline_violation,
                    thresholds.min_violation,
                )
                margin = drift.mean_violation - threshold
            channels["conformance"] = {
                "statistic": drift.mean_violation,
                "baseline": drift.baseline_violation,
                "threshold": threshold,
                "margin": margin,
                "ratio": drift.ratio,
                "alarm": drift.alarm,
                "n_scored": drift.n_scored,
            }
        if self.density_estimator is not None:
            density = self.density_status()
            if density.baseline_log_density is None:
                threshold = None
                margin = None
            else:
                threshold = density.baseline_log_density - thresholds.density_drop
                margin = (density.drop or 0.0) - thresholds.density_drop
            channels["density"] = {
                "statistic": density.mean_log_density,
                "baseline": density.baseline_log_density,
                "threshold": threshold,
                "margin": margin,
                "drop": density.drop,
                "alarm": density.alarm,
                "n_scored": density.n_scored,
            }
        if self._baseline_group_fraction is not None:
            group = self.group_status()
            channels["group"] = {
                "statistic": group.minority_fraction,
                "baseline": group.baseline_fraction,
                "threshold": thresholds.group_tolerance,
                "margin": (group.shift or 0.0) - thresholds.group_tolerance,
                "shift": group.shift,
                "alarm": group.alarm,
                "n_scored": group.n_scored,
            }
        sequences = [sequence for *_, sequence in self._chunks]
        counts = self._window_counts
        group_rates: Dict[str, Dict[str, Any]] = {}
        for label, g in (("majority", 0), ("minority", 1)):
            n = counts.group_n(g)
            group_rates[label] = {
                "n": n,
                "selection_rate": counts.selection_rate(g) if n else None,
            }
        return {
            "n_seen": self.n_seen,
            "n_window": self._window_rows,
            "min_samples": thresholds.min_samples,
            "last_sequence": self.last_sequence,
            "window_sequence_min": min(sequences) if sequences else None,
            "window_sequence_max": max(sequences) if sequences else None,
            "alarmed": [name for name, channel in channels.items() if channel["alarm"]],
            "channels": channels,
            "group_rates": group_rates,
        }

    # ------------------------------------------------------------ reports
    @property
    def window_counts(self) -> StreamCounts:
        """The window's current sufficient statistics (a defensive copy)."""
        return self._window_counts.copy()

    @property
    def n_window(self) -> int:
        return self._window_rows

    def windowed_report(self) -> FairnessReport:
        """Full fairness report over the window (requires labelled traffic)."""
        return report_from_counts(self._window_counts)

    def windowed_summary(self) -> dict:
        """Label-free window view: selection rates, DI*, and drift state."""
        counts = self._window_counts
        out = {"n_window": self._window_rows, "n_seen": self.n_seen}
        if counts.n_samples and counts.group_n(0) and counts.group_n(1):
            sr_minority = counts.selection_rate(1)
            sr_majority = counts.selection_rate(0)
            _, di_star = fold_disparate_impact(sr_minority, sr_majority)
            out["selection_rate_minority"] = sr_minority
            out["selection_rate_majority"] = sr_majority
            out["di_star"] = di_star
        drift = self.drift_status()
        out["drift"] = {
            "n_scored": drift.n_scored,
            "mean_violation": drift.mean_violation,
            "baseline_violation": drift.baseline_violation,
            "alarm": drift.alarm,
        }
        if self.density_estimator is not None:
            density = self.density_status()
            out["density"] = {
                "n_scored": density.n_scored,
                "mean_log_density": density.mean_log_density,
                "baseline_log_density": density.baseline_log_density,
                "alarm": density.alarm,
            }
        if self._baseline_group_fraction is not None:
            group = self.group_status()
            out["group"] = {
                "n_scored": group.n_scored,
                "minority_fraction": group.minority_fraction,
                "baseline_fraction": group.baseline_fraction,
                "alarm": group.alarm,
            }
        return out

    # ------------------------------------------------------- checkpointing
    _state_attributes = (
        "thresholds_",
        "n_seen_",
        "next_sequence_",
        "evicted_through_",
        "window_counts_",
        "window_rows_",
        "violation_rows_",
        "log_density_rows_",
        "baseline_violation_",
        "baseline_log_density_",
        "baseline_group_fraction_",
        "chunk_counts_",
        "chunk_rows_",
        "chunk_sums_",
        "chunk_sequences_",
    )

    def state_dict(self) -> Dict[str, Any]:
        """Pack the full sliding window into flat, artifact-storable state.

        The per-chunk float sums are the *only* float window state — window
        means are folded from them in sequence order on demand — so the state
        is exactly reproducible: restoring the chunks restores every report
        and status bit for bit, and two monitors with equal states are
        indistinguishable.  That is also what makes states comparable with
        ``==`` in merge tests.
        """
        chunks = list(self._chunks)
        return {
            "thresholds_": self.thresholds.to_dict(),
            "n_seen_": self.n_seen,
            "next_sequence_": self._next_sequence,
            "evicted_through_": self._evicted_through,
            "window_counts_": self._window_counts.counts.copy(),
            "window_rows_": self._window_rows,
            "violation_rows_": self._violation_rows,
            "log_density_rows_": self._log_density_rows,
            "baseline_violation_": self._baseline_violation,
            "baseline_log_density_": self._baseline_log_density,
            "baseline_group_fraction_": self._baseline_group_fraction,
            "chunk_counts_": (
                np.stack([counts.counts for counts, *_ in chunks])
                if chunks
                else np.zeros((0, 2, 6), dtype=np.int64)
            ),
            "chunk_rows_": np.array(
                [
                    [size, scored, density_scored]
                    for _, size, _, scored, _, density_scored, _ in chunks
                ],
                dtype=np.int64,
            ).reshape(len(chunks), 3),
            "chunk_sums_": np.array(
                [
                    [violation_sum, density_sum]
                    for _, _, violation_sum, _, density_sum, _, _ in chunks
                ],
                dtype=np.float64,
            ).reshape(len(chunks), 2),
            "chunk_sequences_": np.array(
                [sequence for *_, sequence in chunks], dtype=np.int64
            ),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> "FairnessMonitor":
        """Restore a window packed by :meth:`state_dict` and return ``self``.

        Unlike the flat-attribute base behaviour, the window state is one
        all-or-nothing snapshot: unknown *and* missing entries are both
        rejected.
        """
        unknown = sorted(set(state) - set(self._state_attributes))
        missing = sorted(set(self._state_attributes) - set(state))
        if unknown or missing:
            problems = [
                f"unexpected entries: {', '.join(map(repr, unknown))}" if unknown else "",
                f"missing entries: {', '.join(map(repr, missing))}" if missing else "",
            ]
            raise ValidationError(
                "FairnessMonitor state does not match its declared attributes "
                f"({'; '.join(p for p in problems if p)}); accepted state "
                f"attributes: {self._state_attributes}"
            )
        chunk_counts = np.asarray(state["chunk_counts_"], dtype=np.int64)
        chunk_rows = np.asarray(state["chunk_rows_"], dtype=np.int64)
        chunk_sums = np.asarray(state["chunk_sums_"], dtype=np.float64)
        chunk_sequences = np.asarray(state["chunk_sequences_"], dtype=np.int64)
        if not (
            len(chunk_counts) == len(chunk_rows) == len(chunk_sums) == len(chunk_sequences)
        ):
            raise ValidationError("FairnessMonitor chunk state arrays disagree in length")
        self._chunks = deque(
            (
                StreamCounts(chunk_counts[i].copy()),
                int(chunk_rows[i, 0]),
                float(chunk_sums[i, 0]),
                int(chunk_rows[i, 1]),
                float(chunk_sums[i, 1]),
                int(chunk_rows[i, 2]),
                int(chunk_sequences[i]),
            )
            for i in range(len(chunk_counts))
        )
        self._window_counts = StreamCounts(
            np.asarray(state["window_counts_"], dtype=np.int64).copy()
        )
        self._window_rows = int(state["window_rows_"])
        self._violation_rows = int(state["violation_rows_"])
        self._log_density_rows = int(state["log_density_rows_"])
        self._next_sequence = int(state["next_sequence_"])
        self._evicted_through = int(state["evicted_through_"])
        self.thresholds = MonitorThresholds.from_dict(dict(state["thresholds_"]))
        for attribute, key in (
            ("_baseline_violation", "baseline_violation_"),
            ("_baseline_log_density", "baseline_log_density_"),
            ("_baseline_group_fraction", "baseline_group_fraction_"),
        ):
            value = state[key]
            setattr(self, attribute, None if value is None else float(value))
        self.n_seen = int(state["n_seen_"])
        return self

    # ------------------------------------------------------------- merging
    @classmethod
    def merge_state_dicts(
        cls, states: Sequence[Dict[str, Any]], *, window_size: int
    ) -> Dict[str, Any]:
        """Reduce per-shard window states into the union monitor's state.

        The reduction replays every retained chunk, ordered by its sequence
        number, through the same append-then-evict loop a live monitor runs.
        Why this is *exactly* the union monitor's state:

        * a shard retains the maximal suffix of *its* chunks whose rows fit
          the window; the union monitor retains the maximal fitting suffix of
          *all* chunks — a subset of the shards' union, so no needed chunk
          was lost to shard-local eviction;
        * eviction is sound across scopes: a sub-monitor evicts a chunk only
          when its *own* suffix rows overflow the window, and the union
          stream's suffix rows are never smaller — so anything any input
          evicted, the union monitor evicted too.  Each monitor therefore
          records its **eviction horizon** (``evicted_through_``, the
          highest sequence it ever evicted), and the merge first drops every
          chunk at or below the inputs' combined horizon: union eviction is
          front-first, so evicting sequence *s* implies evicting everything
          older.  Without the horizon, a staged merge that evicted under its
          partial view would later accept an even older chunk from a third
          input that the monolithic replay rejects — the one way staged and
          monolithic merges could disagree.  With it, any merge tree
          replays to the same retained suffix *and* the same horizon, which
          makes the merge associative;
        * sorting by sequence erases argument order — which makes it
          commutative — and a duplicate sequence number (the same stream
          position claimed by two shards) is rejected as ambiguous.

        ``window_size`` must be the shards' common window; baselines must
        agree across shards (they are fixed from the same training split).
        Raises :class:`~repro.exceptions.ValidationError` on any mismatch.
        """
        if not states:
            raise ValidationError("merge_state_dicts needs at least one monitor state")
        if window_size < 1:
            raise ValidationError("window_size must be at least 1")
        thresholds = MonitorThresholds.from_dict(dict(states[0]["thresholds_"]))
        for state in states[1:]:
            other = MonitorThresholds.from_dict(dict(state["thresholds_"]))
            if other != thresholds:
                raise ValidationError(
                    "Cannot merge monitor states with diverging thresholds "
                    f"({thresholds!r} vs {other!r}); shards of one fleet must "
                    "share a monitor configuration"
                )
        baselines: Dict[str, Any] = {}
        for key in ("baseline_violation_", "baseline_log_density_", "baseline_group_fraction_"):
            values = [state[key] for state in states]
            first = values[0]
            for value in values[1:]:
                if (value is None) != (first is None) or (
                    value is not None and float(value) != float(first)
                ):
                    raise ValidationError(
                        f"Cannot merge monitor states with diverging {key[:-1]} "
                        f"({first!r} vs {value!r}); shards must share baselines "
                        "fixed from the same training split"
                    )
            baselines[key] = first
        chunks = []
        for state in states:
            chunk_counts = np.asarray(state["chunk_counts_"], dtype=np.int64)
            chunk_rows = np.asarray(state["chunk_rows_"], dtype=np.int64)
            chunk_sums = np.asarray(state["chunk_sums_"], dtype=np.float64)
            chunk_sequences = np.asarray(state["chunk_sequences_"], dtype=np.int64)
            if not (
                len(chunk_counts) == len(chunk_rows) == len(chunk_sums) == len(chunk_sequences)
            ):
                raise ValidationError("FairnessMonitor chunk state arrays disagree in length")
            for i in range(len(chunk_counts)):
                chunks.append(
                    (
                        int(chunk_sequences[i]),
                        (
                            StreamCounts(chunk_counts[i].copy()),
                            int(chunk_rows[i, 0]),
                            float(chunk_sums[i, 0]),
                            int(chunk_rows[i, 1]),
                            float(chunk_sums[i, 1]),
                            int(chunk_rows[i, 2]),
                            int(chunk_sequences[i]),
                        ),
                    )
                )
        chunks.sort(key=lambda pair: pair[0])
        for (a, _), (b, _) in zip(chunks, chunks[1:]):
            if a == b:
                raise ValidationError(
                    f"Cannot merge monitor states: sequence {a} is claimed by two "
                    "chunks (the same stream position served by two shards); "
                    "assign each dispatched batch a unique stream-wide sequence"
                )
        evicted_through = max(int(state["evicted_through_"]) for state in states)
        merged = cls(window_size=window_size, thresholds=thresholds)
        merged._evicted_through = evicted_through
        for sequence, chunk in chunks:
            if sequence <= evicted_through:
                # Some input already evicted this stream position or a newer
                # one, so the union monitor evicted this chunk too (front-
                # first eviction drops a time-prefix).
                continue
            merged._chunks.append(chunk)
            merged._window_counts += chunk[0]
            merged._window_rows += chunk[1]
            merged._violation_rows += chunk[3]
            merged._log_density_rows += chunk[5]
            merged._evict()
        merged.n_seen = sum(int(state["n_seen_"]) for state in states)
        merged._next_sequence = max(int(state["next_sequence_"]) for state in states)
        for key, value in baselines.items():
            setattr(merged, f"_{key[:-1]}", None if value is None else float(value))
        return merged.state_dict()

    @classmethod
    def merge(cls, *monitors: "FairnessMonitor") -> "FairnessMonitor":
        """Merge per-shard monitors into one union-stream monitor.

        The result carries the first monitor's configuration (window size,
        thresholds, profile, density estimator) and the replayed union
        window; its ``state_dict``, windowed report, and every status are
        bit-identical to a single monitor that observed all the shards'
        batches in sequence order.  All monitors must share the same scalar
        configuration and baselines; see :meth:`merge_state_dicts` for the
        merge semantics and failure modes.
        """
        if not monitors:
            raise ValidationError("merge needs at least one monitor")
        first = monitors[0]
        scalar_keys = ("window_size", "thresholds", "n_numeric_features")
        for other in monitors[1:]:
            if not isinstance(other, FairnessMonitor):
                raise ValidationError(
                    f"merge expects FairnessMonitor instances, got {type(other).__name__}"
                )
            mismatched = [
                key
                for key in scalar_keys
                if getattr(other, key) != getattr(first, key)
            ]
            if mismatched:
                raise ValidationError(
                    "Cannot merge monitors with diverging configuration: "
                    f"{', '.join(mismatched)} differ (shards of one fleet must "
                    "share a monitor configuration)"
                )
            if (other.profile is None) != (first.profile is None) or (
                other.density_estimator is None
            ) != (first.density_estimator is None):
                raise ValidationError(
                    "Cannot merge monitors with diverging channels: every shard "
                    "must hold the same profile / density estimator (or none)"
                )
        merged = first.config_clone()
        state = cls.merge_state_dicts(
            [monitor.state_dict() for monitor in monitors],
            window_size=first.window_size,
        )
        return merged.load_state_dict(state)
