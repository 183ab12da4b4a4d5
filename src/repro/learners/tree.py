"""Depth-limited CART trees with per-sample weights.

Two public estimators live here:

* :class:`DecisionTreeRegressor` — weighted squared-error regression tree,
  the building block of :class:`repro.learners.boosting.GradientBoostingClassifier`.
* :class:`DecisionTreeClassifier` — a thin classification wrapper fitting a
  regression tree on 0/1 labels and thresholding the predicted mean.

Split search is exact CART over a bounded number of candidate thresholds per
feature: every boundary between distinct values, or ``max_candidate_thresholds``
evenly spaced ones when a feature has more.  It is the exact greedy search of
XGBoost (Chen & Guestrin, KDD 2016):

* every column is sorted once per fit (a stable argsort), and each child
  inherits its parent's per-feature row order filtered to the child's rows,
  which is the order a stable argsort of the child's rows would give;
* a node scores its features in fixed blocks of 32 columns, with prefix sums
  of ``w``, ``w*y`` and ``w*y**2`` along each sorted column and gains computed
  at the candidate positions only;
* the winner is the first maximum in (feature, position) order, and a later
  block wins only on a strictly greater gain.

Those are the summation order and the tie rule of a loop that sorts and scores
one feature at a time, so the trees equal that loop's byte for byte
(``tests/tree_reference.py`` keeps it as the test oracle).  ``predict`` walks
the flattened node arrays, advancing every row one level per vectorized step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.learners.base import BaseClassifier, BaseEstimator
from repro.utils.validation import check_array, check_sample_weight, check_X_y


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


def _unflatten_tree(flat: dict) -> _TreeNode:
    """Rebuild the node structure produced by :func:`_flatten_tree`."""
    prediction = np.asarray(flat["prediction"], dtype=np.float64)
    nodes = [
        _TreeNode(
            prediction=float(prediction[i]),
            feature=int(flat["feature"][i]),
            threshold=float(flat["threshold"][i]),
            n_samples=int(flat["n_samples"][i]),
            depth=int(flat["depth"][i]),
        )
        for i in range(prediction.shape[0])
    ]
    for i, node in enumerate(nodes):
        left_index = int(flat["left"][i])
        if left_index >= 0:
            node.left = nodes[left_index]
            node.right = nodes[int(flat["right"][i])]
            node.children = [node.left, node.right]
    return nodes[0]


_BLOCK_COLUMNS = 32  # features scored per vectorized step; bounds the temporaries


def _thin_boundaries(boundary: np.ndarray, cap: int) -> None:
    """Keep ``cap`` evenly spaced boundaries in every row of ``boundary`` that has more.

    Row ``i`` with ``k > cap`` boundaries keeps those whose rank among its
    boundaries is in ``int(np.linspace(0, k - 1, cap))``; ``boundary`` is
    updated in place.
    """
    counts = boundary.sum(axis=1)
    over = np.flatnonzero(counts > cap)
    if over.size == 0:
        return
    picks = np.linspace(0, counts[over] - 1, cap).astype(int)
    keep = np.zeros((over.size, boundary.shape[1]), dtype=bool)
    keep[np.arange(over.size), picks] = True
    rank = np.cumsum(boundary[over], axis=1) - 1
    boundary[over] &= np.take_along_axis(keep, np.maximum(rank, 0), axis=1)


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        return float(values.mean()) if values.size else 0.0
    return float(np.dot(values, weights) / total)


class DecisionTreeRegressor(BaseEstimator):
    """Weighted squared-error regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (the root is depth 0).
    min_samples_split:
        Minimum number of samples required to consider splitting a node.
    min_samples_leaf:
        Minimum number of samples in each child produced by a split.
    max_candidate_thresholds:
        Optional cap on the number of candidate split positions evaluated per
        feature.  ``None`` (default) evaluates every boundary between
        distinct values (exact CART behaviour); the gradient-boosting learner
        passes a small cap for speed.
    min_impurity_decrease:
        Minimum reduction in weighted squared error required to accept a split.
    """

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

    def fit(self, X, y, sample_weight: Optional[np.ndarray] = None) -> "DecisionTreeRegressor":
        """Grow the tree on ``(X, y)`` with optional per-sample weights."""
        X, y = check_X_y(X, y)
        y = np.asarray(y, dtype=np.float64).ravel()
        weights = check_sample_weight(sample_weight, X.shape[0])
        self.n_features_ = X.shape[1]
        self.root_ = self._build(X, y, weights)
        self._compile()
        return self

    # ------------------------------------------------------------------ fit
    def _build(self, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> _TreeNode:
        """Grow the tree depth-first from one stable argsort of every column."""
        n_samples = X.shape[0]
        columns = np.ascontiguousarray(X.T)
        wy = w * y
        moments = np.stack([w, wy, wy * y])
        root = _TreeNode(prediction=_weighted_mean(y, w), n_samples=n_samples, depth=0)
        # Each entry holds a node's rows (ascending) and, per feature, those rows
        # in sorted order.  Popping rebinds ``order``, releasing the parent's.
        stack = [(root, np.arange(n_samples), np.argsort(columns, axis=1, kind="stable"))]
        while stack:
            node, rows, order = stack.pop()
            y_node, w_node = y[rows], w[rows]
            if (
                node.depth >= self.max_depth
                or rows.size < self.min_samples_split
                or np.allclose(y_node, y_node[0])
            ):
                continue
            split = self._best_split(columns, moments, order, y_node, w_node)
            if split is None:
                continue

            node.feature, node.threshold = split
            in_left = np.zeros(n_samples, dtype=bool)
            in_left[rows[columns[node.feature, rows] <= node.threshold]] = True
            for side in (in_left, ~in_left):
                child_rows = rows[side[rows]]
                child = _TreeNode(
                    prediction=_weighted_mean(y[child_rows], w[child_rows]),
                    n_samples=int(child_rows.size),
                    depth=node.depth + 1,
                )
                node.children.append(child)
                child_order = np.compress(side[order].ravel(), order).reshape(len(order), -1)
                stack.append((child, child_rows, child_order))
            node.left, node.right = node.children
        return root

    def _best_split(
        self,
        columns: np.ndarray,
        moments: np.ndarray,
        order: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
    ):
        """Search the (feature, threshold) pair minimizing weighted SSE.

        ``columns`` is the fit's ``X.T``, ``moments`` stacks ``w``, ``w*y`` and
        ``w*y**2`` over all fit rows, and ``order[f]`` lists the node's rows
        sorted by feature ``f`` (``y`` and ``w`` are the node's own).  The
        weighted SSE of a child is ``sum(w*y^2) - sum(w*y)^2 / sum(w)``.

        Features are scored in blocks of ``_BLOCK_COLUMNS``.  In a block, the
        split positions of a feature are the boundaries between distinct
        consecutive sorted values, thinned to ``max_candidate_thresholds``
        evenly spaced ones when there are more, then restricted to positions
        leaving ``min_samples_leaf`` rows and positive weight on both sides.
        Prefix sums of the three moments run along every sorted column at
        once, and gains are computed at the candidate positions only.  The
        first maximum in (feature, position) order wins its block, and a
        later block replaces it only with a strictly greater gain.  This is
        the summation order and the tie rule of scoring one feature at a
        time, so the chosen split is the same to the last bit.
        """
        n_samples = order.shape[1]
        total_weight = float(w.sum())
        parent_sse = float(np.dot(w, (y - _weighted_mean(y, w)) ** 2))
        # Positions p split the sorted rows into [0, p] and (p, n): keep those
        # leaving at least min_samples_leaf rows on each side.
        first = max(self.min_samples_leaf - 1, 0)
        stop = min(n_samples - 1, n_samples - self.min_samples_leaf)
        if first >= stop:
            return None
        # Where each feature's row starts in the flattened ``columns``.
        offsets = np.arange(0, columns.size, columns.shape[1])[:, None]
        best = None
        best_gain = self.min_impurity_decrease
        for start in range(0, order.shape[0], _BLOCK_COLUMNS):
            sorted_rows = order[start : start + _BLOCK_COLUMNS]
            values = np.take(columns, sorted_rows + offsets[start : start + _BLOCK_COLUMNS])
            candidate = values[:, :-1] < values[:, 1:]
            if self.max_candidate_thresholds is not None:
                _thin_boundaries(candidate, self.max_candidate_thresholds)
            candidate = candidate[:, first:stop]
            sums = np.take(moments, sorted_rows, axis=1)
            np.cumsum(sums, axis=2, out=sums)
            w_prefix = sums[0, :, first:stop]
            candidate &= (w_prefix > 0) & (total_weight - w_prefix > 0)
            feature, position = np.nonzero(candidate)
            if feature.size == 0:
                continue
            position += first

            w_left = sums[0, feature, position]
            w_right = total_weight - w_left
            wy_left = sums[1, feature, position]
            wy_right = sums[1, feature, -1] - wy_left
            wyy_left = sums[2, feature, position]
            wyy_right = sums[2, feature, -1] - wyy_left
            sse_left = wyy_left - wy_left**2 / w_left
            sse_right = wyy_right - wy_right**2 / w_right
            gains = (parent_sse - sse_left - sse_right) / max(total_weight, 1e-12)

            top = int(np.argmax(gains))
            if gains[top] > best_gain:
                best_gain = float(gains[top])
                f, p = feature[top], position[top]
                best = (start + int(f), float((values[f, p] + values[f, p + 1]) / 2.0))
        return best

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Fitted state as flat arrays (the node structure is flattened)."""
        if not hasattr(self, "root_"):
            return {}
        return {"n_features_": self.n_features_, "tree_": _flatten_tree(self.root_)}

    def load_state_dict(self, state: dict) -> "DecisionTreeRegressor":
        """Restore a tree flattened by :meth:`state_dict`."""
        if state:
            self.n_features_ = int(state["n_features_"])
            self.root_ = _unflatten_tree(state["tree_"])
            self._compile()
        return self

    # -------------------------------------------------------------- predict
    def predict(self, X) -> np.ndarray:
        """Return the leaf means for every row of ``X``."""
        self._check_fitted("root_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fitted with {self.n_features_}"
            )
        return self._walk(X)

    def _compile(self) -> None:
        """Derive the walk arrays from ``root_`` (never persisted).

        These are the :func:`_flatten_tree` arrays with every leaf pointing to
        itself, so a row that reaches a leaf early stays there.
        """
        flat = _flatten_tree(self.root_)
        leaf = flat["left"] < 0
        nodes = np.arange(leaf.size)
        self._nodes = (
            np.where(leaf, 0, flat["feature"]),
            flat["threshold"],
            np.where(leaf, nodes, flat["left"]),
            np.where(leaf, nodes, flat["right"]),
            flat["prediction"],
            int(flat["depth"].max()),
        )

    def _walk(self, X: np.ndarray) -> np.ndarray:
        """Leaf means for validated rows: every row descends one level per step."""
        feature, threshold, left, right, prediction, depth = self._nodes
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(depth):
            node = np.where(X[rows, feature[node]] <= threshold[node], left[node], right[node])
        return prediction[node]

    # ------------------------------------------------------------ inspection
    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted("root_")

        def depth_of(node: _TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(depth_of(node.left), depth_of(node.right))

        return depth_of(self.root_)

    @property
    def n_leaves_(self) -> int:
        """Number of leaves in the fitted tree."""
        self._check_fitted("root_")

        def count(node: _TreeNode) -> int:
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self.root_)


class DecisionTreeClassifier(BaseClassifier):
    """Binary classification tree built on :class:`DecisionTreeRegressor`.

    The tree is fitted against 0/1 labels under weighted squared error, so a
    leaf's prediction is the (weighted) positive rate of its training samples;
    that value is used directly as the positive-class probability.

    ``random_state`` is accepted for registry uniformity (every learner can
    be built as ``make_learner(name, random_state=seed)``); tree construction
    is fully deterministic, so the seed changes nothing.
    """

    _state_attributes = ("_tree", "classes_")

    def __init__(
        self,
        max_depth: int = 5,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_candidate_thresholds: Optional[int] = 64,
        random_state: Optional[int] = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_candidate_thresholds = max_candidate_thresholds
        self.random_state = random_state

    def fit(self, X, y, sample_weight: Optional[np.ndarray] = None) -> "DecisionTreeClassifier":
        from repro.utils.validation import check_binary_labels

        X, y = check_X_y(X, y)
        y = check_binary_labels(y)
        self._tree = DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_candidate_thresholds=self.max_candidate_thresholds,
        ).fit(X, y.astype(np.float64), sample_weight)
        self.classes_ = np.array([0, 1])
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("_tree")
        positive = np.clip(self._tree.predict(X), 0.0, 1.0)
        return np.column_stack([1.0 - positive, positive])
