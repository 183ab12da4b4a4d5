"""Unit tests for the group-fairness metrics and reports."""

from dataclasses import asdict

import fairness_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.fairness import (
    GroupMapping,
    average_odds_difference,
    average_odds_star,
    disparate_impact,
    disparate_impact_star,
    equalized_odds_difference,
    evaluate_predictions,
    group_from_column,
    group_from_threshold,
    group_rates,
)
from repro.fairness import metrics as metrics_module
from repro.fairness.metrics import favors_minority, statistical_parity_difference
from repro.fairness.streaming import StreamCounts

# Hand-crafted evaluation: majority (group 0) has SR=0.75, minority SR=0.25.
Y_TRUE = [1, 1, 0, 0, 1, 1, 0, 0]
Y_PRED = [1, 1, 1, 0, 1, 0, 0, 0]
GROUP = [0, 0, 0, 0, 1, 1, 1, 1]


class TestGroupRates:
    def test_per_group_selection_rates(self):
        rates = group_rates(Y_TRUE, Y_PRED, GROUP)
        assert rates["majority"].selection_rate == pytest.approx(0.75)
        assert rates["minority"].selection_rate == pytest.approx(0.25)
        assert rates["majority"].n_samples == 4

    def test_tpr_fpr_fnr(self):
        rates = group_rates(Y_TRUE, Y_PRED, GROUP)
        assert rates["majority"].tpr == pytest.approx(1.0)
        assert rates["majority"].fpr == pytest.approx(0.5)
        assert rates["minority"].tpr == pytest.approx(0.5)
        assert rates["minority"].fnr == pytest.approx(0.5)

    def test_missing_group_rejected(self):
        with pytest.raises(ValidationError):
            group_rates([0, 1], [0, 1], [0, 0])


class TestDisparateImpact:
    def test_raw_ratio(self):
        assert disparate_impact(Y_TRUE, Y_PRED, GROUP) == pytest.approx(0.25 / 0.75)

    def test_star_folds_above_one(self):
        # Swap groups: the minority is now favored; DI* must fold back below 1.
        swapped = [1 - g for g in GROUP]
        di_star = disparate_impact_star(Y_TRUE, Y_PRED, swapped)
        assert di_star == pytest.approx(1.0 / 3.0)

    def test_parity_gives_one(self):
        assert disparate_impact_star([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_zero_minority_selection_gives_zero(self):
        assert disparate_impact_star([1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_zero_majority_selection_gives_zero_star(self):
        assert disparate_impact_star([1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1]) == 0.0

    def test_favors_minority_flag(self):
        assert not favors_minority(Y_TRUE, Y_PRED, GROUP)
        assert favors_minority(Y_TRUE, Y_PRED, [1 - g for g in GROUP])

    def test_statistical_parity_difference_sign(self):
        assert statistical_parity_difference(Y_TRUE, Y_PRED, GROUP) == pytest.approx(-0.5)


class TestAverageOdds:
    def test_signed_value(self):
        expected = ((0.0 - 0.5) + (0.5 - 1.0)) / 2.0
        assert average_odds_difference(Y_TRUE, Y_PRED, GROUP) == pytest.approx(expected)

    def test_star_reporting(self):
        assert average_odds_star(Y_TRUE, Y_PRED, GROUP) == pytest.approx(1.0 - 0.5)

    def test_equal_treatment_scores_one(self):
        y_true = [1, 0, 1, 0]
        y_pred = [1, 0, 1, 0]
        assert average_odds_star(y_true, y_pred, [0, 0, 1, 1]) == pytest.approx(1.0)


class TestEqualizedOdds:
    def test_fnr_gap(self):
        assert equalized_odds_difference(Y_TRUE, Y_PRED, GROUP, rate="fnr") == pytest.approx(0.5)

    def test_fpr_gap(self):
        assert equalized_odds_difference(Y_TRUE, Y_PRED, GROUP, rate="fpr") == pytest.approx(0.5)

    def test_invalid_rate(self):
        for rate in ("tnr", "tpr"):
            with pytest.raises(ValidationError):
                equalized_odds_difference(Y_TRUE, Y_PRED, GROUP, rate=rate)


class TestFairnessReport:
    def test_report_fields_consistent(self):
        report = evaluate_predictions(Y_TRUE, Y_PRED, GROUP)
        assert report.di_star == pytest.approx(disparate_impact_star(Y_TRUE, Y_PRED, GROUP))
        assert report.selection_rate_majority == pytest.approx(0.75)
        assert not report.degenerate
        assert 0.0 <= report.balanced_accuracy <= 1.0

    def test_degenerate_flag_for_single_class_predictions(self):
        report = evaluate_predictions([0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 1, 1])
        assert report.degenerate

    def test_to_dict_round_trip(self):
        report = evaluate_predictions(Y_TRUE, Y_PRED, GROUP)
        as_dict = report.to_dict()
        assert as_dict["di_star"] == report.di_star
        assert "aod_star" in as_dict


def _bits(value):
    """A value's exact identity: the hex of a float, the repr of anything else."""
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, repr(value))


def _fields(record):
    return {name: _bits(value) for name, value in asdict(record).items()}


METRICS = (
    "disparate_impact",
    "disparate_impact_star",
    "favors_minority",
    "average_odds_difference",
    "average_odds_star",
    "statistical_parity_difference",
)

# Rows of (group, y_true, y_pred); both groups are forced in by the test.
binary_rows = st.lists(
    st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=0, max_size=80
)


class TestOnePathEqualsMaskOracle:
    """Every fairness number equals the frozen mask-based computation bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=binary_rows,
        dtype=st.sampled_from([np.int64, np.int32, np.float64, np.bool_]),
        single_class=st.sampled_from([None, 0, 1]),
        one_label_minority=st.sampled_from([None, 0, 1]),
    )
    def test_report_rates_and_metrics_equal_oracle(
        self, rows, dtype, single_class, one_label_minority
    ):
        rows = [(False, True, False), (True, False, True)] + rows
        group = np.array([g for g, _, _ in rows])
        y_true = np.array([t for _, t, _ in rows])
        y_pred = np.array([p for _, _, p in rows])
        if single_class is not None:
            y_pred[:] = single_class
        if one_label_minority is not None:
            y_true[group] = one_label_minority
        y_true, y_pred, group = (a.astype(dtype) for a in (y_true, y_pred, group))

        assert _fields(evaluate_predictions(y_true, y_pred, group)) == _fields(
            reference.evaluate_predictions(y_true, y_pred, group)
        )
        rates = group_rates(y_true, y_pred, group)
        expected = reference.group_rates(y_true, y_pred, group)
        assert rates.keys() == expected.keys()
        for key in expected:
            assert _fields(rates[key]) == _fields(expected[key])
        for name in METRICS:
            new = getattr(metrics_module, name)(y_true, y_pred, group)
            old = getattr(reference, name)(y_true, y_pred, group)
            assert _bits(new) == _bits(old), name
        for rate in ("fnr", "fpr"):
            assert _bits(equalized_odds_difference(y_true, y_pred, group, rate=rate)) == _bits(
                reference.equalized_odds_difference(y_true, y_pred, group, rate=rate)
            )

    @settings(max_examples=100, deadline=None)
    @given(rows=binary_rows, labelled=st.booleans())
    def test_from_batch_equals_masked_sums(self, rows, labelled):
        group = np.array([g for g, _, _ in rows], dtype=np.int64)
        y_true = np.array([t for _, t, _ in rows], dtype=np.int64)
        y_pred = np.array([p for _, _, p in rows], dtype=np.int64)
        counts = StreamCounts.from_batch(y_pred, group, y_true if labelled else None)
        for g in (0, 1):
            rows_g = group == g
            true, pred = y_true[rows_g], y_pred[rows_g]
            confusion = [
                np.sum((true == 1) & (pred == 1)),
                np.sum((true == 0) & (pred == 1)),
                np.sum((true == 1) & (pred == 0)),
                np.sum((true == 0) & (pred == 0)),
            ]
            expected = [rows_g.sum(), np.sum(pred == 1)] + (
                confusion if labelled else [0, 0, 0, 0]
            )
            assert counts.counts[g].tolist() == expected
        assert counts.counts.dtype == np.int64

    def test_group_outside_zero_one_rejected(self):
        # The mask path dropped the third row from the group rates but still
        # counted it in accuracy and balanced accuracy.
        with pytest.raises(ValidationError, match="group must contain only binary"):
            evaluate_predictions([0, 1, 1], [0, 1, 0], [0, 1, 2])
        with pytest.raises(ValidationError, match="group must contain only binary"):
            group_rates([0, 1, 1], [0, 1, 0], [0, 1, 2])


class TestGroupMappings:
    def test_group_from_column(self):
        mapping = group_from_column(0, minority_values=["b"])
        X = np.array([["a", 1], ["b", 2], ["b", 3]], dtype=object)
        assert mapping(X).tolist() == [0, 1, 1]

    def test_group_from_threshold(self):
        mapping = group_from_threshold(1, threshold=35.0)
        X = np.array([[0.0, 20.0], [0.0, 50.0]])
        assert mapping(X).tolist() == [1, 0]

    def test_threshold_above_is_minority(self):
        mapping = group_from_threshold(0, threshold=10.0, below_is_minority=False)
        assert mapping(np.array([[5.0], [15.0]])).tolist() == [0, 1]

    def test_mapping_must_return_binary(self):
        bad = GroupMapping(lambda X: np.full(len(X), 7))
        with pytest.raises(ValidationError):
            bad(np.zeros((3, 1)))

    def test_empty_minority_values_rejected(self):
        with pytest.raises(ValidationError):
            group_from_column(0, minority_values=[])
