"""Online fairness and drift monitoring of served traffic.

The paper frames unfairness as a *data drift* problem: the minority's tuples
follow a different distribution than the majority's, and a deployed model's
fairness degrades exactly when the serving distribution drifts relative to
the profiled training partitions.  :class:`FairnessMonitor` operationalizes
both halves of that framing for a live service:

* **fairness over a sliding window** — DI*, AOD*, and balanced accuracy
  computed incrementally from :class:`~repro.fairness.streaming.StreamCounts`
  (integer sufficient statistics, so window eviction is subtraction); the
  windowed report is :func:`~repro.fairness.report_from_counts` of the
  window's summed counts, the function
  :func:`~repro.fairness.evaluate_predictions` applies to one batch, so it
  equals the offline report on the same rows by construction;
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

The monitor is also **mergeable**: every committed chunk carries a monotone
*sequence number* (self-assigned, or stamped globally by a
:class:`~repro.fleet.FleetService` fanning one stream across shards).  The
window's float statistics are running add/subtract aggregates held
*exactly*: each chunk's violation and log-density sums enter the window as
integers in units of 2**-1074 (every finite double is an exact multiple of
that unit), so adding and evicting a chunk is exact integer arithmetic and
a status read is one correctly rounded division — equal to
:func:`math.fsum` of the retained chunk sums, whatever evicted history the
window carries.  :meth:`FairnessMonitor.merge` /
:meth:`FairnessMonitor.merge_state_dicts` reduce saved per-shard windows
into one monitor that is bit-identical — same ``state_dict``, reports,
statuses, and alarms — to a single monitor that observed the union stream.
Merging is associative and order-invariant: chunks are reordered by
sequence, every monitor records its eviction horizon (the highest sequence
it ever evicted — anything below it is provably union-evicted, since
front-first eviction drops a time-prefix), and the merge replay discards
chunks below the combined horizon before evicting afresh, so any merge
tree converges to the same state.

Scoring and committing are separate steps: :meth:`FairnessMonitor.score`
turns one served batch into a :class:`MonitorChunk` reading only the
monitor's configuration, and :meth:`FairnessMonitor.commit` adds a chunk to
the window.  A service scores outside its lock and commits under it, and a
fleet's shards score while the front-end commits every chunk, in sequence
order, into its one window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Any, Deque, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.partitions import PartitionProfile
from repro.density.kde import KernelDensity
from repro.exceptions import ValidationError
from repro.fairness.report import FairnessReport, report_from_counts
from repro.fairness.streaming import StreamCounts, fold_disparate_impact
from repro.learners.base import BaseEstimator

LOG_DENSITY_FLOOR = -700.0
"""Clamp for very low and ``-inf`` log-densities: ``exp(-700)`` sits just
above the smallest normal double, so a clamped window mean stays finite
while still signalling maximal drift.  The Gaussian KDE's log-density is
finite however far a row lies from the data, except for a row whose squared
distances to the training data all overflow, which scores ``-inf``."""

_UNIT = 2**1074
"""Window sums are held as integer multiples of ``1 / _UNIT`` = 2**-1074, the
smallest positive double, of which every finite double is an exact multiple."""


def _units(value: float) -> int:
    """``value`` (a finite double) as an exact integer count of 2**-1074."""
    numerator, denominator = value.as_integer_ratio()
    # The denominator is a power of two, 2**k with k <= 1074.
    return numerator << (1075 - denominator.bit_length())


class MonitorChunk(NamedTuple):
    """One scored batch, as :meth:`FairnessMonitor.score` returns it.

    ``counts`` are the batch's group outcome counts (empty for a
    group-blind batch), ``rows`` its size, and the two channel sums are
    over the ``violation_rows`` / ``log_density_rows`` rows each channel
    scored.  :meth:`FairnessMonitor.commit` adds it to a window.
    """

    counts: StreamCounts
    rows: int
    violation_sum: float
    violation_rows: int
    log_density_sum: float
    log_density_rows: int


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

    def violation_threshold(self, baseline: float) -> float:
        """The windowed mean violation the conformance channel alarms above,
        ``max(drift_factor * baseline, min_violation)``."""
        return max(self.drift_factor * baseline, self.min_violation)


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
        # rows, log-density sum, log-density rows, sequence number), the two
        # channel sums as exact integer multiples of 2**-1074.  Every window
        # aggregate below is running and exact, so evicting a chunk leaves
        # no rounding of it behind: the window's value depends only on the
        # retained chunks, the property shard merging relies on.
        self._chunks: Deque[Tuple[StreamCounts, int, int, int, int, int, int]] = deque()
        self._window_counts = StreamCounts()
        self._window_rows = 0
        self._violation_rows = 0
        self._log_density_rows = 0
        self._violation_total = 0
        self._log_density_total = 0
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
    def score(self, y_pred, group=None, *, y_true=None, X=None) -> MonitorChunk:
        """Score one served batch into a chunk, without touching the window.

        Reads only the monitor's configuration (profile, density estimator,
        numeric width), so it may run concurrently with other scoring and
        with reads.  Raises :class:`~repro.exceptions.ValidationError` on
        anything :meth:`commit` could not add: a batch
        :meth:`~repro.fairness.StreamCounts.from_batch` rejects, feature
        rows narrower than the scored numeric columns or holding NaN/inf,
        and a channel sum that is not finite.

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
            density estimator.
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
        if not (math.isfinite(violation_sum) and math.isfinite(density_sum)):
            raise ValidationError(
                "the batch's conformance-violation or log-density sum is not finite "
                f"({violation_sum!r}, {density_sum!r})"
            )
        return MonitorChunk(counts, size, violation_sum, scored, density_sum, density_scored)

    def commit(self, chunk: MonitorChunk, *, sequence: Optional[int] = None) -> int:
        """Add a scored chunk to the window; returns the chunk's sequence.

        ``sequence`` is the chunk's global position in the stream.  Left
        ``None`` (a single monitor consuming its own stream) the monitor
        self-assigns 0, 1, 2, …; a fleet front-end committing the chunks
        its shards scored passes the stream-wide sequence it stamped each
        request with.  The returned stamp (the assigned value when
        ``sequence`` was ``None``) is what event-log emitters key their
        ``request`` events by.  O(1) per chunk plus the chunks it evicts.
        """
        if sequence is None:
            sequence = self._next_sequence
        else:
            sequence = int(sequence)
            if sequence < 0:
                raise ValidationError("sequence numbers must be non-negative")
        self._append(
            (
                chunk.counts,
                chunk.rows,
                _units(chunk.violation_sum),
                chunk.violation_rows,
                _units(chunk.log_density_sum),
                chunk.log_density_rows,
                sequence,
            )
        )
        self._next_sequence = max(self._next_sequence, sequence + 1)
        self.n_seen += chunk.rows
        self._evict()
        return sequence

    def update(self, y_pred, group=None, *, y_true=None, X=None, sequence=None) -> int:
        """Score one served batch and commit it: ``commit(score(...))``.

        Returns the batch's sequence stamp; a batch :meth:`score` rejects
        raises :class:`~repro.exceptions.ValidationError` and leaves the
        monitor unchanged.
        """
        return self.commit(self.score(y_pred, group, y_true=y_true, X=X), sequence=sequence)

    def _append(self, entry: Tuple[StreamCounts, int, int, int, int, int, int]) -> None:
        counts, size, violation_units, scored, density_units, density_scored, _ = entry
        self._chunks.append(entry)
        self._window_counts += counts
        self._window_rows += size
        self._violation_rows += scored
        self._log_density_rows += density_scored
        self._violation_total += violation_units
        self._log_density_total += density_units

    def _evict(self) -> None:
        while self._window_rows > self.window_size and len(self._chunks) > 1:
            counts, size, violation_units, scored, density_units, density_scored, sequence = (
                self._chunks.popleft()
            )
            self._window_counts -= counts
            self._window_rows -= size
            self._violation_rows -= scored
            self._log_density_rows -= density_scored
            self._violation_total -= violation_units
            self._log_density_total -= density_units
            if sequence > self._evicted_through:
                self._evicted_through = sequence

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
        with scores below :data:`LOG_DENSITY_FLOOR`, ``-inf`` included,
        clamped to it so window sums stay finite.
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
        """An *empty* monitor sharing this monitor's configuration and baselines.

        The profile and density estimator are shared by reference (both are
        read-only at scoring time), not copied — this is the cheap way to
        stamp out a fleet front-end's window from a shard's monitor.  Window
        contents are not carried over.
        """
        clone = FairnessMonitor(
            window_size=self.window_size,
            profile=self.profile,
            density_estimator=self.density_estimator,
            n_numeric_features=self.n_numeric_features,
            thresholds=self.thresholds,
        )
        clone.set_baselines(self.baselines)
        return clone

    def drift_status(self) -> DriftStatus:
        """Current state of the conformance-drift alarm."""
        n = self._violation_rows
        mean = self._violation_total / _UNIT / n if n else 0.0
        baseline = self._baseline_violation
        if baseline is None:
            return DriftStatus(n, mean, None, None, False)
        if baseline > 0:
            ratio: Optional[float] = mean / baseline
        else:
            ratio = float("inf") if mean > 0 else 1.0
        thresholds = self.thresholds
        alarm = n >= thresholds.min_samples and mean > thresholds.violation_threshold(baseline)
        return DriftStatus(n, mean, baseline, ratio, alarm)

    def density_status(self) -> DensityDriftStatus:
        """Current state of the density-drift signal."""
        n = self._log_density_rows
        mean = self._log_density_total / _UNIT / n if n else 0.0
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
        """Highest sequence stamp committed to this monitor (-1 before any)."""
        return self._next_sequence - 1

    def alarmed_channels(self) -> Tuple[str, ...]:
        """Names of the channels currently raising an alarm.

        Equals ``tuple(alarm_report()["alarmed"])`` without building the
        rest of the report.
        """
        channels = []
        if self.profile is not None and self.drift_status().alarm:
            channels.append("conformance")
        if self.density_estimator is not None and self.density_status().alarm:
            channels.append("density")
        if self._baseline_group_fraction is not None and self.group_status().alarm:
            channels.append("group")
        return tuple(channels)

    def alarm_report(self) -> Dict[str, Any]:
        """One attribution snapshot explaining the monitor's current alarms.

        Per active channel (``conformance`` when a profile is attached,
        ``density`` when a density estimator is, ``group`` when a group
        baseline is fixed): the windowed statistic, its baseline, the exact
        alarm threshold the status predicate compares against, the margin by
        which the statistic clears it (positive = alarming, assuming
        ``min_samples`` is met), the alarm verdict, and the scored count.
        Statistic/baseline/threshold values match :meth:`drift_status` /
        :meth:`density_status` / :meth:`group_status` exactly — the report
        reads the same status objects, and the conformance threshold is the
        one :meth:`MonitorThresholds.violation_threshold` the status compares
        against.

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
                threshold = thresholds.violation_threshold(drift.baseline_violation)
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

    def emit_alarm_edge(
        self, events, previous: Sequence[str], current: Sequence[str], **attributes: Any
    ) -> None:
        """Log the alarmed channels changing from ``previous`` to ``current``.

        Emits an ``alarm_edge`` event (raised, cleared and current channels)
        and a ``channel_snapshot`` carrying :meth:`alarm_report`, both keyed
        by :attr:`last_sequence`, into ``events`` (an
        :class:`~repro.telemetry.EventLog`).  ``attributes``, such as a
        replay's ``step``, ride on both records.  Callers check
        ``events.enabled`` first, so a disabled log builds no report.
        """
        sequence = self.last_sequence
        events.emit(
            "alarm_edge",
            sequence=sequence,
            **attributes,
            raised=[c for c in current if c not in previous],
            cleared=[c for c in previous if c not in current],
            channels=list(current),
        )
        events.emit(
            "channel_snapshot",
            sequence=sequence,
            trigger="alarm_edge",
            **attributes,
            report=self.alarm_report(),
        )

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

        The per-chunk channel sums are the *only* float window state — the
        window holds them as exact integers in units of 2**-1074, and the
        conversion is exact both ways — so the state is exactly
        reproducible: restoring the chunks restores every report and status
        bit for bit, and two monitors with equal states are
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
                    [violation_units / _UNIT, density_units / _UNIT]
                    for _, _, violation_units, _, density_units, _, _ in chunks
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
        rejected, as are chunk arrays of the wrong shapes and window
        aggregates that are not the sums over the retained chunks.
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
        chunks, chunk_counts, chunk_rows = self._parse_chunks(state)
        window_counts = np.asarray(state["window_counts_"], dtype=np.int64)
        window_rows = [
            int(state[key]) for key in ("window_rows_", "violation_rows_", "log_density_rows_")
        ]
        if not (
            np.array_equal(window_counts, chunk_counts.sum(axis=0))
            and window_rows == chunk_rows.sum(axis=0).tolist()
        ):
            raise ValidationError(
                "FairnessMonitor window aggregates (window_counts_, window_rows_, "
                "violation_rows_, log_density_rows_) must equal the sums over the "
                "retained chunks"
            )
        self._chunks = deque(chunks)
        self._window_counts = StreamCounts(window_counts.copy())
        self._window_rows, self._violation_rows, self._log_density_rows = window_rows
        self._violation_total = sum(chunk[2] for chunk in chunks)
        self._log_density_total = sum(chunk[4] for chunk in chunks)
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

    @staticmethod
    def _parse_chunks(state: Dict[str, Any]) -> Tuple[list, np.ndarray, np.ndarray]:
        """The retained chunks of a packed state, as the window deque holds them.

        Also returns the chunk count and row arrays, whose sums the window
        aggregates must equal.  Raises
        :class:`~repro.exceptions.ValidationError` unless the four chunk
        arrays have the shapes ``(k, 2, 6)``, ``(k, 3)``, ``(k, 2)`` and
        ``(k,)`` for one ``k``, and unless every chunk sum is finite.
        """
        chunk_counts = np.asarray(state["chunk_counts_"], dtype=np.int64)
        chunk_rows = np.asarray(state["chunk_rows_"], dtype=np.int64)
        chunk_sums = np.asarray(state["chunk_sums_"], dtype=np.float64)
        chunk_sequences = np.asarray(state["chunk_sequences_"], dtype=np.int64)
        k = chunk_sequences.shape[0] if chunk_sequences.ndim else -1
        shapes = (chunk_counts.shape, chunk_rows.shape, chunk_sums.shape, chunk_sequences.shape)
        if shapes != ((k, 2, 6), (k, 3), (k, 2), (k,)):
            raise ValidationError(
                "FairnessMonitor chunk state arrays must have the shapes (k, 2, 6), "
                f"(k, 3), (k, 2) and (k,) for one k; got {shapes}"
            )
        if not np.isfinite(chunk_sums).all():
            raise ValidationError("FairnessMonitor chunk_sums_ must be finite")
        chunks = [
            (
                StreamCounts(counts),
                size,
                _units(violation_sum),
                scored,
                _units(density_sum),
                density_scored,
                seq,
            )
            for counts, (size, scored, density_scored), (violation_sum, density_sum), seq in zip(
                chunk_counts.copy(),
                chunk_rows.tolist(),
                chunk_sums.tolist(),
                chunk_sequences.tolist(),
            )
        ]
        return chunks, chunk_counts, chunk_rows

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
        chunks = [chunk for state in states for chunk in cls._parse_chunks(state)[0]]
        chunks.sort(key=lambda chunk: chunk[-1])
        for earlier, later in zip(chunks, chunks[1:]):
            if earlier[-1] == later[-1]:
                raise ValidationError(
                    f"Cannot merge monitor states: sequence {later[-1]} is claimed by two "
                    "chunks (the same stream position served by two shards); "
                    "assign each dispatched batch a unique stream-wide sequence"
                )
        evicted_through = max(int(state["evicted_through_"]) for state in states)
        merged = cls(window_size=window_size, thresholds=thresholds)
        merged._evicted_through = evicted_through
        for chunk in chunks:
            if chunk[-1] <= evicted_through:
                # Some input already evicted this stream position or a newer
                # one, so the union monitor evicted this chunk too (front-
                # first eviction drops a time-prefix).
                continue
            merged._append(chunk)
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
