"""Gradient-boosted trees under the logistic loss (the paper's "XGB" learner).

This is a standard gradient-boosting machine: each boosting round fits a
depth-limited :class:`repro.learners.tree.DecisionTreeRegressor` to the
negative gradient of the (weighted) logistic loss, and adds it to the additive
model with a shrinkage factor.  Per-sample weights are multiplied into the
gradient, exactly how ``xgboost`` consumes ``sample_weight``.

The exact second-order (Newton) leaf weights of XGBoost are not required for
any behaviour the paper measures; the relevant property — a flexible,
non-linear tree-ensemble learner that consumes sample weights — is preserved.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.learners.base import BaseClassifier
from repro.learners.logistic import _sigmoid
from repro.learners.tree import DecisionTreeRegressor
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_binary_labels, check_sample_weight, check_X_y


class GradientBoostingClassifier(BaseClassifier):
    """Binary gradient-boosting classifier with logistic loss.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds (trees).
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of the individual regression trees.
    min_samples_leaf:
        Minimum samples per leaf in the individual trees.
    subsample:
        Fraction of rows sampled (without replacement) per boosting round;
        1.0 disables row subsampling.  A round whose sample holds only
        zero-weight rows adds a tree that predicts 0, so the scores and the
        loss carry over and ``estimators_`` still holds ``n_estimators``
        trees.
    max_candidate_thresholds:
        Passed through to the tree split search.
    random_state:
        Seed controlling row subsampling.

    Attributes
    ----------
    estimators_:
        List of fitted :class:`DecisionTreeRegressor` instances.
    init_score_:
        The constant initial log-odds prediction.
    train_losses_:
        Weighted training loss after each boosting round.
    """

    _state_attributes = (
        "estimators_",
        "init_score_",
        "train_losses_",
        "n_features_",
        "classes_",
    )

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        max_candidate_thresholds: int = 16,
        random_state: Optional[int] = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_candidate_thresholds = max_candidate_thresholds
        self.random_state = random_state

    def fit(self, X, y, sample_weight: Optional[np.ndarray] = None) -> "GradientBoostingClassifier":
        """Fit the boosted ensemble to ``(X, y)``."""
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        X, y = check_X_y(X, y)
        y = check_binary_labels(y)
        weights = check_sample_weight(sample_weight, X.shape[0])
        weights = weights / weights.mean()
        rng = check_random_state(self.random_state)

        positive_rate = float(np.clip(np.average(y, weights=weights), 1e-6, 1 - 1e-6))
        self.init_score_ = float(np.log(positive_rate / (1.0 - positive_rate)))

        n_samples = X.shape[0]
        scores = np.full(n_samples, self.init_score_, dtype=np.float64)
        self.estimators_: List[DecisionTreeRegressor] = []
        self.train_losses_: List[float] = []

        for _ in range(self.n_estimators):
            probabilities = _sigmoid(scores)
            residuals = y - probabilities  # negative gradient of logistic loss

            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_candidate_thresholds=self.max_candidate_thresholds,
            )
            if self.subsample < 1.0:
                sample_size = max(1, int(round(self.subsample * n_samples)))
                indices = rng.choice(n_samples, size=sample_size, replace=False)
                if weights[indices].any():
                    tree.fit(X[indices], residuals[indices], sample_weight=weights[indices])
                else:
                    # Nothing to learn from: a single leaf predicting 0.
                    tree.fit(X[indices], np.zeros(sample_size))
            else:
                tree.fit(X, residuals, sample_weight=weights)
            scores = scores + self.learning_rate * tree._walk(X)
            self.estimators_.append(tree)

            loss = float(np.mean(weights * (np.logaddexp(0.0, scores) - y * scores)))
            self.train_losses_.append(loss)

        self.n_features_ = X.shape[1]
        self.classes_ = np.array([0, 1])
        return self

    def decision_function(self, X) -> np.ndarray:
        """Return the additive-model log-odds for every row of ``X``.

        ``X`` is validated once for every tree: finite, and as wide as at fit.
        """
        self._check_fitted("estimators_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with {self.n_features_}"
            )
        scores = np.full(X.shape[0], self.init_score_, dtype=np.float64)
        for tree in self.estimators_:
            scores += self.learning_rate * tree._walk(X)
        return scores

    def predict_proba(self, X) -> np.ndarray:
        """Return class probabilities of shape ``(n_samples, 2)``."""
        positive = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - positive, positive])
