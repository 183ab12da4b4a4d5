"""Frozen copy of the seed tree learner — DO NOT MODIFY.

This module preserves the per-feature split search of the seed's
:class:`DecisionTreeRegressor` (``_build``, ``_best_split``,
``_predict_row``) and the seed's :class:`GradientBoostingClassifier` fit
loop, their arithmetic exactly as they shipped before the presorted,
feature-blocked split search replaced them.  They are the oracle of the
learner's *byte-identical guarantee*: ``tests/test_learners_tree_equivalence.py``
fits the same inputs through both implementations and asserts that the
flattened trees, ``predict`` outputs, training losses and decision functions
are equal by ``tobytes()``, so any change to a split, a threshold or a leaf
value is caught immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.learners.base import BaseClassifier, BaseEstimator
from repro.learners.logistic import _sigmoid
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_binary_labels, check_sample_weight, check_X_y


@dataclass
class _TreeNode:
    """A single node of a fitted tree (internal or leaf)."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None
    n_samples: int = 0
    depth: int = 0
    children: List["_TreeNode"] = field(default_factory=list, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _flatten_tree(root: _TreeNode) -> dict:
    """Serialize a fitted tree into parallel arrays (preorder node order).

    ``left`` / ``right`` hold child node indices, ``-1`` for leaves; the
    float arrays preserve thresholds and predictions bit-exactly.
    """
    nodes: List[_TreeNode] = []

    def visit(node: _TreeNode) -> int:
        index = len(nodes)
        nodes.append(node)
        if not node.is_leaf:
            visit(node.left)
            visit(node.right)
        return index

    visit(root)
    index_of = {id(node): i for i, node in enumerate(nodes)}
    left = np.array(
        [index_of[id(n.left)] if not n.is_leaf else -1 for n in nodes], dtype=np.int64
    )
    right = np.array(
        [index_of[id(n.right)] if not n.is_leaf else -1 for n in nodes], dtype=np.int64
    )
    return {
        "prediction": np.array([n.prediction for n in nodes], dtype=np.float64),
        "feature": np.array([n.feature for n in nodes], dtype=np.int64),
        "threshold": np.array([n.threshold for n in nodes], dtype=np.float64),
        "left": left,
        "right": right,
        "n_samples": np.array([n.n_samples for n in nodes], dtype=np.int64),
        "depth": np.array([n.depth for n in nodes], dtype=np.int64),
    }


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        return float(values.mean()) if values.size else 0.0
    return float(np.dot(values, weights) / total)


class ReferenceDecisionTreeRegressor(BaseEstimator):
    """The seed regression tree: per-node, per-feature argsort split search."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_candidate_thresholds: Optional[int] = None,
        min_impurity_decrease: float = 0.0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_candidate_thresholds = max_candidate_thresholds
        self.min_impurity_decrease = min_impurity_decrease

    def fit(self, X, y, sample_weight: Optional[np.ndarray] = None):
        """Grow the tree on ``(X, y)`` with optional per-sample weights."""
        X, y = check_X_y(X, y)
        y = np.asarray(y, dtype=np.float64).ravel()
        weights = check_sample_weight(sample_weight, X.shape[0])
        self.n_features_ = X.shape[1]
        self.root_ = self._build(X, y, weights, depth=0)
        return self

    # ------------------------------------------------------------------ fit
    def _build(self, X: np.ndarray, y: np.ndarray, w: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(
            prediction=_weighted_mean(y, w), n_samples=int(X.shape[0]), depth=depth
        )
        if (
            depth >= self.max_depth
            or X.shape[0] < self.min_samples_split
            or np.allclose(y, y[0])
        ):
            return node

        split = self._best_split(X, y, w)
        if split is None:
            return node

        feature, threshold = split
        left_mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[left_mask], y[left_mask], w[left_mask], depth + 1)
        node.right = self._build(X[~left_mask], y[~left_mask], w[~left_mask], depth + 1)
        node.children = [node.left, node.right]
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray, w: np.ndarray):
        """Search the (feature, threshold) pair minimizing weighted SSE.

        For each feature the column is sorted once and every split position is
        evaluated simultaneously through prefix sums of ``w``, ``w*y``, and
        ``w*y**2`` — the weighted SSE of a child is
        ``sum(w*y^2) - sum(w*y)^2 / sum(w)``.
        """
        n_samples = X.shape[0]
        total_weight = float(w.sum())
        parent_sse = float(np.dot(w, (y - _weighted_mean(y, w)) ** 2))
        best = None
        best_gain = self.min_impurity_decrease
        wy = w * y
        wyy = wy * y

        for feature in range(X.shape[1]):
            column = X[:, feature]
            order = np.argsort(column, kind="mergesort")
            sorted_column = column[order]
            # Valid split positions: boundaries between distinct consecutive values.
            boundaries = np.flatnonzero(sorted_column[:-1] < sorted_column[1:])
            if boundaries.size == 0:
                continue
            cap = self.max_candidate_thresholds
            if cap is not None and boundaries.size > cap:
                picks = np.linspace(0, boundaries.size - 1, cap)
                boundaries = boundaries[np.unique(picks.astype(int))]

            cum_w = np.cumsum(w[order])
            cum_wy = np.cumsum(wy[order])
            cum_wyy = np.cumsum(wyy[order])

            n_left = boundaries + 1
            n_right = n_samples - n_left
            valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
            if not valid.any():
                continue
            boundaries = boundaries[valid]
            n_left = n_left[valid]

            w_left = cum_w[boundaries]
            w_right = total_weight - w_left
            usable = (w_left > 0) & (w_right > 0)
            if not usable.any():
                continue
            boundaries = boundaries[usable]
            w_left, w_right = w_left[usable], w_right[usable]

            wy_left = cum_wy[boundaries]
            wy_right = cum_wy[-1] - wy_left
            wyy_left = cum_wyy[boundaries]
            wyy_right = cum_wyy[-1] - wyy_left
            sse_left = wyy_left - wy_left**2 / w_left
            sse_right = wyy_right - wy_right**2 / w_right
            gains = (parent_sse - sse_left - sse_right) / max(total_weight, 1e-12)

            best_index = int(np.argmax(gains))
            if gains[best_index] > best_gain:
                best_gain = float(gains[best_index])
                position = boundaries[best_index]
                threshold = (sorted_column[position] + sorted_column[position + 1]) / 2.0
                best = (feature, float(threshold))
        return best

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Fitted state as flat arrays (the node structure is flattened)."""
        if not hasattr(self, "root_"):
            return {}
        return {"n_features_": self.n_features_, "tree_": _flatten_tree(self.root_)}

    # -------------------------------------------------------------- predict
    def predict(self, X) -> np.ndarray:
        """Return the leaf means for every row of ``X``."""
        self._check_fitted("root_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fitted with {self.n_features_}"
            )
        return np.array([self._predict_row(row) for row in X], dtype=np.float64)

    def _predict_row(self, row: np.ndarray) -> float:
        node = self.root_
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction


class ReferenceGradientBoostingClassifier(BaseClassifier):
    """The seed boosting loop, growing :class:`ReferenceDecisionTreeRegressor` trees."""

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

    def fit(self, X, y, sample_weight: Optional[np.ndarray] = None):
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
        self.estimators_: List[ReferenceDecisionTreeRegressor] = []
        self.train_losses_: List[float] = []

        for _ in range(self.n_estimators):
            probabilities = _sigmoid(scores)
            residuals = y - probabilities  # negative gradient of logistic loss

            if self.subsample < 1.0:
                sample_size = max(1, int(round(self.subsample * n_samples)))
                indices = rng.choice(n_samples, size=sample_size, replace=False)
            else:
                indices = np.arange(n_samples)

            tree = ReferenceDecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_candidate_thresholds=self.max_candidate_thresholds,
            )
            tree.fit(X[indices], residuals[indices], sample_weight=weights[indices])
            scores = scores + self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)

            loss = float(np.mean(weights * (np.logaddexp(0.0, scores) - y * scores)))
            self.train_losses_.append(loss)

        self.n_features_ = X.shape[1]
        self.classes_ = np.array([0, 1])
        return self

    def decision_function(self, X) -> np.ndarray:
        """Return the additive-model log-odds for every row of ``X``."""
        self._check_fitted("estimators_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with {self.n_features_}"
            )
        scores = np.full(X.shape[0], self.init_score_, dtype=np.float64)
        for tree in self.estimators_:
            scores += self.learning_rate * tree.predict(X)
        return scores

    def staged_decision_function(self, X) -> np.ndarray:
        """Return log-odds after each boosting round, shape ``(n_estimators, n_samples)``."""
        self._check_fitted("estimators_")
        X = check_array(X, name="X")
        scores = np.full(X.shape[0], self.init_score_, dtype=np.float64)
        stages = np.empty((len(self.estimators_), X.shape[0]), dtype=np.float64)
        for i, tree in enumerate(self.estimators_):
            scores = scores + self.learning_rate * tree.predict(X)
            stages[i] = scores
        return stages
