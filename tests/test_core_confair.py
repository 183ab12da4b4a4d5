"""Unit tests for ConFair (Algorithm 2) and the intervention-degree tuning."""

import numpy as np
import pytest

from repro.core import ConFair
from repro.core.tuning import tune_intervention_degree
from repro.exceptions import NotFittedError, ValidationError
from repro.fairness import (
    disparate_impact_star,
    equalized_odds_difference,
    evaluate_predictions,
)
from repro.learners import LogisticRegressionClassifier, make_learner
from repro.learners.metrics import balanced_accuracy_score


class TestWeights:
    def test_weights_positive_and_aligned(self, drifted_split):
        confair = ConFair(alpha_u=1.0).fit(drifted_split.train)
        assert confair.weights_.shape[0] == drifted_split.train.n_samples
        assert np.all(confair.weights_ > 0)

    def test_alpha_zero_reduces_to_balancing_weights(self, drifted_split):
        confair = ConFair(alpha_u=0.0, alpha_w=0.0).fit(drifted_split.train)
        train = drifted_split.train
        # With alpha = 0 every tuple in the same (group, label) cell shares a weight.
        for group_value in (0, 1):
            for label in (0, 1):
                mask = (train.group == group_value) & (train.y == label)
                if mask.any():
                    assert np.unique(np.round(confair.weights_[mask], 12)).size == 1

    def test_conforming_minority_tuples_boosted(self, drifted_split):
        confair = ConFair(alpha_u=2.0, alpha_w=0.0).fit(drifted_split.train)
        baseline = confair.compute_weights(alpha_u=0.0, alpha_w=0.0).weights
        boosted_rows = confair.conforming_minority_
        assert boosted_rows.size > 0
        delta = confair.weights_[boosted_rows] - baseline[boosted_rows]
        assert np.allclose(delta, 2.0)

    def test_intra_group_weight_variability(self, drifted_split):
        confair = ConFair(alpha_u=2.0).fit(drifted_split.train)
        minority_mask = drifted_split.train.group == 1
        assert np.unique(np.round(confair.weights_[minority_mask], 9)).size > 1

    def test_weights_monotone_in_alpha(self, drifted_split):
        confair = ConFair(alpha_u=0.0).fit(drifted_split.train)
        low = confair.compute_weights(alpha_u=0.5).weights
        high = confair.compute_weights(alpha_u=2.5).weights
        assert np.all(high >= low - 1e-12)

    def test_fairness_targets_select_different_rows(self, drifted_split):
        di = ConFair(alpha_u=1.0, fairness_target="di").fit(drifted_split.train)
        fnr = ConFair(alpha_u=1.0, fairness_target="fnr").fit(drifted_split.train)
        fpr = ConFair(alpha_u=1.0, fairness_target="fpr").fit(drifted_split.train)
        assert fnr.conforming_majority_.size == 0
        assert fpr.conforming_majority_.size == 0
        # FNR boosts minority positives, FPR boosts minority negatives.
        train = drifted_split.train
        assert np.all(train.y[fnr.conforming_minority_] == 1)
        assert np.all(train.y[fpr.conforming_minority_] == 0)
        assert di.conforming_majority_.size > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            ConFair(alpha_u=-1.0)
        with pytest.raises(ValidationError):
            ConFair(fairness_target="parity")
        with pytest.raises(ValidationError):
            ConFair(conformance_tol=-0.1)


class TestFairnessEffect:
    def test_improves_disparate_impact(self, drifted_split):
        split = drifted_split
        baseline_model = make_learner("lr", random_state=0)
        baseline_model.fit(split.train.X, split.train.y)
        baseline = evaluate_predictions(
            split.deploy.y, baseline_model.predict(split.deploy.X), split.deploy.group
        )

        confair = ConFair(learner="lr", tuning_grid=(0.0, 0.5, 1.0, 2.0, 3.0)).fit(
            split.train, validation=split.validation
        )
        model = confair.fit_learner()
        treated = evaluate_predictions(
            split.deploy.y, model.predict(split.deploy.X), split.deploy.group
        )
        assert treated.di_star >= baseline.di_star - 0.05
        assert treated.balanced_accuracy > 0.5

    def test_auto_tuning_requires_validation(self, drifted_split):
        with pytest.raises(ValidationError):
            ConFair().fit(drifted_split.train)

    def test_explicit_alpha_skips_tuning(self, drifted_split):
        confair = ConFair(alpha_u=1.5).fit(drifted_split.train)
        assert confair.alpha_u_ == 1.5
        assert confair.alpha_w_ == 0.75
        assert confair.tuning_result_ is None

    def test_tuning_records_trials(self, drifted_split):
        confair = ConFair(learner="lr", tuning_grid=(0.0, 1.0)).fit(
            drifted_split.train, validation=drifted_split.validation
        )
        assert confair.tuning_result_ is not None
        assert len(confair.tuning_result_.trials) == 2
        assert confair.alpha_u_ in (0.0, 1.0)

    def test_fit_learner_accepts_custom_learner(self, drifted_split):
        confair = ConFair(alpha_u=1.0).fit(drifted_split.train)
        model = confair.fit_learner(LogisticRegressionClassifier(max_iter=50))
        assert hasattr(model, "coef_")

    def test_compute_weights_before_fit(self):
        with pytest.raises(NotFittedError):
            ConFair(alpha_u=1.0).compute_weights(alpha_u=1.0)

    def test_fit_learner_before_fit(self):
        with pytest.raises(NotFittedError):
            ConFair(alpha_u=1.0).fit_learner()

    def test_repr_shows_constructor_params(self):
        text = repr(ConFair(alpha_u=1.5, fairness_target="fnr"))
        assert text.startswith("ConFair(")
        assert "alpha_u=1.5" in text
        assert "fairness_target='fnr'" in text


class TestTuningHelper:
    def test_prefers_fairer_degree(self, drifted_split):
        split = drifted_split
        confair = ConFair(alpha_u=0.0).fit(split.train)
        result = tune_intervention_degree(
            weight_fn=lambda alpha: confair.compute_weights(alpha_u=alpha).weights,
            train=split.train,
            validation=split.validation,
            learner=make_learner("lr", random_state=0),
            candidate_degrees=(0.0, 1.0, 2.0),
        )
        assert result.best_degree in (0.0, 1.0, 2.0)
        fairness_by_degree = {t.degree: t.fairness for t in result.trials}
        assert result.best_fairness == pytest.approx(max(fairness_by_degree.values()))

    @pytest.mark.parametrize("fairness_target", ["di", "fnr", "fpr"])
    def test_trials_equal_the_metrics_recomputed(self, drifted_split, fairness_target):
        """Each trial's fairness and balanced accuracy come from one report;
        they equal the metric functions applied to the trial model's
        validation predictions."""
        split = drifted_split
        confair = ConFair(alpha_u=0.0).fit(split.train)

        def weights(alpha):
            return confair.compute_weights(alpha_u=alpha).weights

        result = tune_intervention_degree(
            weight_fn=weights,
            train=split.train,
            validation=split.validation,
            learner=make_learner("lr", random_state=0),
            candidate_degrees=(0.0, 1.0, 2.0),
            fairness_target=fairness_target,
        )
        for trial in result.trials:
            model = make_learner("lr", random_state=0)
            model.fit(split.train.X, split.train.y, sample_weight=weights(trial.degree))
            predictions = model.predict(split.validation.X)
            assert trial.balanced_accuracy == balanced_accuracy_score(
                split.validation.y, predictions
            )
            if fairness_target == "di":
                expected = disparate_impact_star(
                    split.validation.y, predictions, split.validation.group
                )
            else:
                expected = 1.0 - equalized_odds_difference(
                    split.validation.y, predictions, split.validation.group, rate=fairness_target
                )
            assert trial.fairness == expected

    def test_empty_grid_rejected(self, drifted_split):
        with pytest.raises(ValidationError):
            tune_intervention_degree(
                weight_fn=lambda alpha: np.ones(drifted_split.train.n_samples),
                train=drifted_split.train,
                validation=drifted_split.validation,
                learner=make_learner("lr"),
                candidate_degrees=(),
            )

    def test_weight_length_checked(self, drifted_split):
        with pytest.raises(ValidationError):
            tune_intervention_degree(
                weight_fn=lambda alpha: np.ones(3),
                train=drifted_split.train,
                validation=drifted_split.validation,
                learner=make_learner("lr"),
                candidate_degrees=(0.0,),
            )
