"""Unit tests for DiffFair (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import DiffFair
from repro.exceptions import NotFittedError, ValidationError
from repro.fairness import evaluate_predictions
from repro.learners import make_learner


class TestFit:
    def test_trains_two_models_and_profiles(self, drifted_split):
        diffair = DiffFair(learner="lr").fit(drifted_split.train)
        assert hasattr(diffair, "model_majority_")
        assert hasattr(diffair, "model_minority_")
        assert len(diffair.profile_.constraint_sets) == 4

    def test_validation_scores_recorded(self, drifted_split):
        diffair = DiffFair(learner="lr").fit(drifted_split.train, validation=drifted_split.validation)
        scores = diffair.validation_scores_
        assert set(scores) == {"majority", "minority"}
        assert all(0.0 <= value <= 1.0 for value in scores.values())

    def test_requires_both_groups(self, drifted_split):
        majority_only = drifted_split.train.partition(group_value=0)
        with pytest.raises(ValidationError):
            DiffFair(learner="lr").fit(majority_only)

    @pytest.mark.parametrize("learner", ["lr", "xgb"])
    def test_single_label_minority_predicts_that_label(self, drifted_split, learner):
        """A group whose training rows carry one label gets a model predicting it."""
        train = drifted_split.train
        keep = (train.group == 0) | (train.y == 0)
        single_label = train.subset(np.flatnonzero(keep))
        diffair = DiffFair(learner=learner).fit(single_label)
        deploy = drifted_split.deploy.X
        np.testing.assert_array_equal(
            diffair.model_minority_.predict(deploy), np.zeros(len(deploy), dtype=np.int64)
        )

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            DiffFair().predict(np.zeros((2, 3)))

    def test_repr_shows_constructor_params(self):
        text = repr(DiffFair(use_density_filter=False))
        assert text.startswith("DiffFair(")
        assert "use_density_filter=False" in text


class TestRouting:
    def test_routing_better_than_chance(self, drifted_split):
        diffair = DiffFair(learner="lr").fit(drifted_split.train)
        routes = diffair.route(drifted_split.deploy.X)
        accuracy = float(np.mean(routes == drifted_split.deploy.group))
        assert accuracy > 0.55

    def test_routing_scores_shape_and_range(self, drifted_split):
        diffair = DiffFair(learner="lr").fit(drifted_split.train)
        scores = diffair.routing_scores(drifted_split.deploy.X)
        assert scores.shape == (drifted_split.deploy.n_samples, 2)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_routing_does_not_use_group_column(self, drifted_split):
        """Routing is a pure function of the features (no group input needed)."""
        diffair = DiffFair(learner="lr").fit(drifted_split.train)
        X = drifted_split.deploy.X
        assert np.array_equal(diffair.route(X), diffair.route(X.copy()))

    def test_feature_count_mismatch(self, drifted_split):
        diffair = DiffFair(learner="lr").fit(drifted_split.train)
        with pytest.raises(ValidationError):
            diffair.route(drifted_split.deploy.X[:, :2])


class TestPredictions:
    def test_predictions_are_binary(self, drifted_split):
        diffair = DiffFair(learner="lr").fit(drifted_split.train)
        predictions = diffair.predict(drifted_split.deploy.X)
        assert set(np.unique(predictions)) <= {0, 1}

    def test_predict_proba_rows_sum_to_one(self, drifted_split):
        diffair = DiffFair(learner="lr").fit(drifted_split.train)
        proba = diffair.predict_proba(drifted_split.deploy.X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_improves_fairness_under_drift(self, drifted_split):
        split = drifted_split
        baseline_model = make_learner("lr", random_state=0)
        baseline_model.fit(split.train.X, split.train.y)
        baseline = evaluate_predictions(
            split.deploy.y, baseline_model.predict(split.deploy.X), split.deploy.group
        )
        diffair = DiffFair(learner="lr").fit(split.train)
        treated = evaluate_predictions(
            split.deploy.y, diffair.predict(split.deploy.X), split.deploy.group
        )
        # Under strong drift the split models serve the minority better.
        assert treated.di_star > baseline.di_star - 0.05
        assert treated.balanced_accuracy > 0.5

    def test_density_filter_variant_differs(self, drifted_split):
        filtered = DiffFair(learner="lr", use_density_filter=True).fit(drifted_split.train)
        raw = DiffFair(learner="lr", use_density_filter=False).fit(drifted_split.train)
        profiled_filtered = sum(filtered.profile_.profiled_sizes.values())
        profiled_raw = sum(raw.profile_.profiled_sizes.values())
        assert profiled_filtered < profiled_raw

    def test_accepts_prototype_learner(self, drifted_split):
        from repro.learners import LogisticRegressionClassifier

        diffair = DiffFair(learner=LogisticRegressionClassifier(max_iter=50)).fit(drifted_split.train)
        assert diffair.predict(drifted_split.deploy.X).shape[0] == drifted_split.deploy.n_samples
