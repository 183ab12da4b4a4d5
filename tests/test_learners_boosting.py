"""Unit tests for the gradient-boosting classifier (the "XGB" stand-in)."""

import numpy as np
import pytest

from repro.learners import GradientBoostingClassifier
from repro.learners.metrics import accuracy_score, balanced_accuracy_score


@pytest.fixture(scope="module")
def xor_data():
    """A non-linear (XOR-like) problem a linear model cannot solve."""
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(600, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


class TestFit:
    def test_solves_nonlinear_problem(self, xor_data):
        X, y = xor_data
        model = GradientBoostingClassifier(n_estimators=40, max_depth=3, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_training_loss_decreases(self, xor_data):
        X, y = xor_data
        model = GradientBoostingClassifier(n_estimators=30, random_state=0).fit(X, y)
        assert model.train_losses_[-1] < model.train_losses_[0]

    def test_more_estimators_fit_better(self, xor_data):
        X, y = xor_data
        small = GradientBoostingClassifier(n_estimators=3, random_state=0).fit(X, y)
        large = GradientBoostingClassifier(n_estimators=40, random_state=0).fit(X, y)
        assert accuracy_score(y, large.predict(X)) >= accuracy_score(y, small.predict(X))

    def test_predict_proba_valid(self, xor_data):
        X, y = xor_data
        proba = GradientBoostingClassifier(n_estimators=10, random_state=0).fit(X, y).predict_proba(X)
        assert proba.shape == (X.shape[0], 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_single_class_data(self):
        X = np.random.default_rng(0).normal(size=(40, 2))
        model = GradientBoostingClassifier(n_estimators=5, random_state=0).fit(X, np.zeros(40, dtype=int))
        assert set(model.predict(X)) == {0}

    def test_subsample_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0).fit([[1.0], [2.0]], [0, 1])

    def test_subsampling_still_learns(self, xor_data):
        X, y = xor_data
        model = GradientBoostingClassifier(n_estimators=40, subsample=0.7, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.85

    def test_reproducible_with_seed(self, xor_data):
        X, y = xor_data
        a = GradientBoostingClassifier(n_estimators=10, subsample=0.8, random_state=3).fit(X, y)
        b = GradientBoostingClassifier(n_estimators=10, subsample=0.8, random_state=3).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))


class TestSampleWeights:
    def test_weights_shift_decision_toward_minority_class(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(500, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=500) > 0.8).astype(int)  # imbalanced
        plain = GradientBoostingClassifier(n_estimators=20, random_state=0).fit(X, y)
        weights = np.where(y == 1, 8.0, 1.0)
        boosted = GradientBoostingClassifier(n_estimators=20, random_state=0).fit(X, y, sample_weight=weights)
        assert boosted.predict(X).mean() > plain.predict(X).mean()

    def test_balanced_accuracy_improves_with_balancing_weights(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(600, 3))
        y = (X[:, 0] > 1.2).astype(int)  # ~12% positives
        weights = np.where(y == 1, (y == 0).sum() / max((y == 1).sum(), 1), 1.0)
        plain = GradientBoostingClassifier(n_estimators=15, random_state=0).fit(X, y)
        balanced = GradientBoostingClassifier(n_estimators=15, random_state=0).fit(X, y, sample_weight=weights)
        assert balanced_accuracy_score(y, balanced.predict(X)) >= balanced_accuracy_score(
            y, plain.predict(X)
        ) - 0.02


class TestStaged:
    def test_feature_mismatch_raises(self, xor_data):
        X, y = xor_data
        model = GradientBoostingClassifier(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(ValueError):
            model.predict(X[:, :1])

    @pytest.mark.parametrize("n_estimators", [0, 3])
    def test_staged_feature_mismatch_raises(self, n_estimators):
        # The width check does not depend on how many stages were fitted.
        X = np.random.default_rng(2).normal(size=(40, 5))
        y = (X[:, 0] > 0).astype(int)
        model = GradientBoostingClassifier(n_estimators=n_estimators, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="5"):
            model.decision_function(X[:, :3])
