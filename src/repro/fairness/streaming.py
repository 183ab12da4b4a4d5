"""Additive per-group counts: the one place group outcomes are counted.

Every fairness number the paper reports (DI*, AOD*, balanced accuracy and
the Equalized-Odds gaps) is a ratio of per-group confusion counts, so one
:class:`StreamCounts` per set of rows is all a report needs.  The counts
add and subtract exactly, which makes them a mergeable summary: a report
over full prediction arrays is the one-batch case, a serving stream sums
its micro-batches, and a sliding window evicts a chunk by integer
subtraction instead of recomputation.
:func:`~repro.fairness.report.report_from_counts` turns counts into a
:class:`~repro.fairness.report.FairnessReport`, and
:class:`~repro.serving.monitor.FairnessMonitor` builds its sliding window
on top of these counts.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError

# Column layout of the per-group count matrix.
_N, _SELECTED, _TP, _FP, _FN, _TN = range(6)


def fold_disparate_impact(sr_minority: float, sr_majority: float) -> tuple:
    """Return ``(di, di_star)`` from the two selection rates.

    The one implementation of the reporting convention (``inf``/``1.0`` for
    a zero majority rate, ``di_star = min(di, 1/di)`` with 0 for the
    degenerate ends), shared by the report and the label-free windowed view.
    """
    if sr_majority == 0.0:
        di = float("inf") if sr_minority > 0 else 1.0
    else:
        di = sr_minority / sr_majority
    di_star = 0.0 if (di == 0.0 or np.isinf(di)) else float(min(di, 1.0 / di))
    return float(di), di_star


def _check_binary(name: str, values) -> np.ndarray:
    arr = np.asarray(values).ravel()
    if arr.size and np.any((arr != 0) & (arr != 1)):
        raise ValidationError(f"{name} must contain only binary 0/1 values")
    return arr


class GroupCounts(NamedTuple):
    """One group's counts as Python ints, and the rates over them.

    A rate whose base is empty is 0.0.  Every rate is a true division of two
    Python ints, correctly rounded.
    """

    n: int
    selected: int
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def selection_rate(self) -> float:
        return self.selected / self.n if self.n else 0.0

    @property
    def tpr(self) -> float:
        return self.tp / (self.tp + self.fn) if self.has_positives else 0.0

    @property
    def fpr(self) -> float:
        return self.fp / (self.fp + self.tn) if self.has_negatives else 0.0

    @property
    def fnr(self) -> float:
        return self.fn / (self.tp + self.fn) if self.has_positives else 0.0

    @property
    def has_positives(self) -> bool:
        return self.tp + self.fn > 0

    @property
    def has_negatives(self) -> bool:
        return self.fp + self.tn > 0


class StreamCounts:
    """Additive per-group sufficient statistics of a prediction stream.

    Internally a ``(2, 6)`` integer matrix — one row per group (0 = majority,
    1 = minority), columns ``[n, selected, tp, fp, fn, tn]``.  The confusion
    columns only grow for batches that carried ground-truth labels, so a
    stream may mix labelled (audit) and unlabelled traffic; ``n_labelled``
    tracks how many rows contributed to the confusion cells.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[np.ndarray] = None) -> None:
        self.counts = (
            np.zeros((2, 6), dtype=np.int64) if counts is None else np.asarray(counts, dtype=np.int64)
        )

    @classmethod
    def from_batch(cls, y_pred, group, y_true=None) -> "StreamCounts":
        """Count one batch of predictions with one ``np.bincount``.

        All three arrays must be binary 0/1: the counts are *sufficient*
        statistics, so a non-binary row silently dropped here would leave
        every metric computed over fewer rows than the caller passed.
        """
        y_pred = _check_binary("y_pred", y_pred)
        group = _check_binary("group", group)
        if y_pred.shape[0] != group.shape[0]:
            raise ValidationError("y_pred and group must have the same number of rows")
        code = 4 * group.astype(np.int64) + y_pred.astype(np.int64)
        if y_true is not None:
            y_true = _check_binary("y_true", y_true)
            if y_true.shape[0] != y_pred.shape[0]:
                raise ValidationError("y_true and y_pred must have the same number of rows")
            code += 2 * y_true.astype(np.int64)
        # Per group, the cells of 2 * y_true + y_pred: tn, fp, fn, tp.
        cells = np.bincount(code, minlength=8).reshape(2, 4)
        counts = np.zeros((2, 6), dtype=np.int64)
        counts[:, _N] = cells.sum(axis=1)
        counts[:, _SELECTED] = cells[:, 1] + cells[:, 3]
        if y_true is not None:
            counts[:, _TP:] = cells[:, [3, 1, 2, 0]]
        return cls(counts)

    # ------------------------------------------------------------ algebra
    def __add__(self, other: "StreamCounts") -> "StreamCounts":
        return StreamCounts(self.counts + other.counts)

    def __sub__(self, other: "StreamCounts") -> "StreamCounts":
        return StreamCounts(self.counts - other.counts)

    def __iadd__(self, other: "StreamCounts") -> "StreamCounts":
        self.counts += other.counts
        return self

    def __isub__(self, other: "StreamCounts") -> "StreamCounts":
        self.counts -= other.counts
        return self

    def copy(self) -> "StreamCounts":
        return StreamCounts(self.counts.copy())

    # --------------------------------------------------------- accessors
    @property
    def n_samples(self) -> int:
        return int(self.counts[:, _N].sum())

    @property
    def n_labelled(self) -> int:
        return int(self.counts[:, _TP:].sum())

    def group_n(self, g: int) -> int:
        return int(self.counts[g, _N])

    def groups(self) -> Tuple[GroupCounts, GroupCounts]:
        """``(majority, minority)``, read from the count matrix in one pass."""
        majority, minority = self.counts.tolist()
        return GroupCounts(*majority), GroupCounts(*minority)

    def selection_rate(self, g: int) -> float:
        """Per-group selection rate, as ``selected / n`` (exact count ratio)."""
        cells = self.groups()[g]
        if cells.n == 0:
            raise ValidationError(f"No samples for group {g} in the current window")
        return cells.selection_rate
