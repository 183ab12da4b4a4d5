"""The presorted, feature-blocked tree learner against its frozen seed oracle.

``tests/tree_reference.py`` keeps the seed's per-feature split search and
boosting loop.  These tests fit the same inputs through both and require the
flattened trees, ``predict`` outputs, training losses and decision functions
to be equal by ``tobytes()``; they also pin the tree artifact format, which
stays the seed's seven flat arrays per tree.  The oracle raises where a
subsampled boosting round draws only zero-weight rows; there the learner's
defined behaviour (a tree predicting 0, the loss carried over) is asserted
instead.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from tree_reference import ReferenceDecisionTreeRegressor, ReferenceGradientBoostingClassifier

from repro import FairnessPipeline
from repro.datasets import load_dataset, make_drifted_groups, split_dataset
from repro.exceptions import ValidationError
from repro.learners import DecisionTreeRegressor, GradientBoostingClassifier, make_learner
from repro.serving.artifacts import MANIFEST_NAME, PAYLOAD_NAME, load_artifact, save_artifact
from repro.utils.random import check_random_state

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
FLAT_ARRAYS = {"prediction", "feature", "threshold", "left", "right", "n_samples", "depth"}


def _features(rng, n_rows, width):
    """Continuous, one-hot, rounded (tie-heavy) and constant columns, mixed."""
    blocks, filled = [], 0
    while filled < width:
        kind = rng.integers(4)
        if kind == 0:
            block = rng.normal(size=(n_rows, 1))
        elif kind == 1:
            levels = int(rng.integers(2, 6))
            block = np.eye(levels)[rng.integers(levels, size=n_rows)]
        elif kind == 2:
            block = np.round(rng.normal(scale=2.0, size=(n_rows, 1)))
        else:
            block = np.full((n_rows, 1), rng.normal())
        blocks.append(block[:, : width - filled])
        filled += blocks[-1].shape[1]
    return np.hstack(blocks)


def _weights(rng, n_rows, zero_fraction):
    weights = rng.uniform(0.1, 3.0, size=n_rows)
    weights[rng.random(n_rows) < zero_fraction] = 0.0
    if not weights.any():
        weights[0] = 1.0
    return weights


def _target(rng, n_rows, kind):
    if kind == "binary":
        return rng.integers(0, 2, size=n_rows).astype(np.float64)
    if kind == "rounded":
        return np.round(rng.normal(size=n_rows))
    return rng.normal(size=n_rows)


def _threshold_rows(X, tree):
    """One row per internal node (at least one), its split feature set to the threshold."""
    flat = tree.state_dict()["tree_"]
    internal = np.flatnonzero(flat["left"] >= 0)
    rows = np.repeat(X[:1], max(internal.size, 1), axis=0)
    rows[np.arange(internal.size), flat["feature"][internal]] = flat["threshold"][internal]
    return rows


def assert_same_tree(tree, oracle, queries):
    state, expected = tree.state_dict(), oracle.state_dict()
    assert state["n_features_"] == expected["n_features_"]
    assert set(state["tree_"]) == set(expected["tree_"]) == FLAT_ARRAYS
    for name, array in expected["tree_"].items():
        assert state["tree_"][name].dtype == array.dtype, name
        assert state["tree_"][name].tobytes() == array.tobytes(), name
    for X in queries:
        assert tree.predict(X).tobytes() == oracle.predict(X).tobytes()


class TestTreeEquivalence:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(2, 60),
        width=st.integers(1, 140),
        target=st.sampled_from(["continuous", "binary", "rounded"]),
        zero_fraction=st.sampled_from([0.0, 0.3]),
        cap=st.sampled_from([None, 1, 2, 16, 64]),
        min_samples_leaf=st.integers(1, 8),
        max_depth=st.integers(1, 5),
    )
    @example(
        seed=0, n_rows=60, width=140, target="continuous", zero_fraction=0.3,
        cap=2, min_samples_leaf=1, max_depth=5,
    )
    def test_trees_and_predictions_are_byte_identical(
        self, seed, n_rows, width, target, zero_fraction, cap, min_samples_leaf, max_depth
    ):
        rng = np.random.default_rng(seed)
        X = _features(rng, n_rows, width)
        y = _target(rng, n_rows, target)
        weights = _weights(rng, n_rows, zero_fraction)
        params = dict(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_candidate_thresholds=cap,
        )
        tree = DecisionTreeRegressor(**params).fit(X, y, sample_weight=weights)
        oracle = ReferenceDecisionTreeRegressor(**params).fit(X, y, sample_weight=weights)
        queries = [X, _features(rng, 25, width), _threshold_rows(X, oracle)]
        assert_same_tree(tree, oracle, queries)

    def test_nan_targets_leave_a_single_leaf_like_the_oracle(self):
        rng = np.random.default_rng(3)
        X = _features(rng, 40, 50)
        y = rng.normal(size=40)
        y[[5, 17]] = np.nan
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        oracle = ReferenceDecisionTreeRegressor(max_depth=3).fit(X, y)
        assert_same_tree(tree, oracle, [X])
        assert tree.n_leaves_ == 1

    def test_registry_xgb_on_meps_matches_the_oracle(self):
        data = load_dataset("meps", size_factor=0.02, random_state=7)
        split = split_dataset(data, random_state=7)
        X, y = split.train.X, split.train.y
        weights = np.random.default_rng(7).uniform(0.5, 2.0, size=len(y))
        model = make_learner("xgb", random_state=0).fit(X, y, sample_weight=weights)
        oracle = ReferenceGradientBoostingClassifier(**model.get_params()).fit(
            X, y, sample_weight=weights
        )
        assert_same_boosting(model, oracle, [X, split.deploy.X])


def assert_same_boosting(model, oracle, queries):
    losses, expected = np.asarray(model.train_losses_), np.asarray(oracle.train_losses_)
    assert losses.tobytes() == expected.tobytes()
    assert len(model.estimators_) == len(oracle.estimators_)
    for tree, reference in zip(model.estimators_, oracle.estimators_):
        assert_same_tree(tree, reference, [])
    for X in queries:
        assert model.decision_function(X).tobytes() == oracle.decision_function(X).tobytes()


def _zero_weight_rounds(params, weights):
    """The rounds whose subsample (drawn as the boosting loop draws it) holds
    only zero-weight rows."""
    rng = check_random_state(params["random_state"])
    n_rows = weights.shape[0]
    size = max(1, int(round(params["subsample"] * n_rows)))
    return [
        index
        for index in range(params["n_estimators"])
        if not weights[rng.choice(n_rows, size=size, replace=False)].any()
    ]


def assert_zero_weight_rounds_carry_over(model, X, y, weights, params, queries):
    """The defined behaviour where the oracle raises: every round is kept, a
    round that drew only zero-weight rows adds a tree predicting 0 (so the
    loss and the scores carry over), and the rounds before the first such
    round equal the oracle's byte for byte."""
    empty = _zero_weight_rounds(params, weights)
    assert empty
    assert len(model.estimators_) == len(model.train_losses_) == params["n_estimators"]
    normalized = weights / weights.mean()
    init = np.full(X.shape[0], model.init_score_)
    losses = [float(np.mean(normalized * (np.logaddexp(0.0, init) - y * init)))]
    losses += list(model.train_losses_)
    for index in empty:
        assert losses[index + 1] == losses[index]
        for Q in queries:
            assert not model.estimators_[index].predict(Q).any()
    if empty[0]:
        prefix = ReferenceGradientBoostingClassifier(**{**params, "n_estimators": empty[0]})
        prefix.fit(X, y, sample_weight=weights)
        assert (
            np.asarray(model.train_losses_[: empty[0]]).tobytes()
            == np.asarray(prefix.train_losses_).tobytes()
        )
        for tree, reference in zip(model.estimators_, prefix.estimators_):
            assert_same_tree(tree, reference, queries)


class TestBoostingEquivalence:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(10, 80),
        width=st.integers(1, 70),
        subsample=st.sampled_from([1.0, 0.7]),
        n_estimators=st.integers(1, 6),
        cap=st.sampled_from([None, 2, 16]),
        zero_fraction=st.sampled_from([0.0, 0.3]),
    )
    @example(
        seed=1, n_rows=10, width=70, subsample=0.7, n_estimators=1, cap=None, zero_fraction=0.3
    )
    def test_losses_and_decision_functions_are_byte_identical(
        self, seed, n_rows, width, subsample, n_estimators, cap, zero_fraction
    ):
        rng = np.random.default_rng(seed)
        X = _features(rng, n_rows, width)
        y = rng.integers(0, 2, size=n_rows)
        weights = _weights(rng, n_rows, zero_fraction)
        params = dict(
            n_estimators=n_estimators,
            subsample=subsample,
            max_candidate_thresholds=cap,
            random_state=seed % 1000,
        )
        model = GradientBoostingClassifier(**params).fit(X, y, sample_weight=weights)
        queries = [X, _features(rng, 30, width)]
        try:
            oracle = ReferenceGradientBoostingClassifier(**params).fit(
                X, y, sample_weight=weights
            )
        except ValidationError as error:
            assert "all zeros" in str(error)
            assert_zero_weight_rounds_carry_over(model, X, y, weights, params, queries)
        else:
            assert_same_boosting(model, oracle, queries)

    def test_a_round_that_draws_only_zero_weight_rows_adds_a_zero_tree(self):
        """The falsifying example hypothesis found: the 7-row subsample of
        round 0 holds none of the 3 weighted rows, and the fit used to raise
        "sample_weight must not be all zeros" (the oracle still does)."""
        rng = np.random.default_rng(1)
        X = _features(rng, 10, 70)
        y = rng.integers(0, 2, size=10)
        weights = _weights(rng, 10, 0.3)
        params = dict(n_estimators=1, subsample=0.7, max_candidate_thresholds=None, random_state=1)
        assert _zero_weight_rounds(params, weights) == [0]
        with pytest.raises(ValidationError, match="all zeros"):
            ReferenceGradientBoostingClassifier(**params).fit(X, y, sample_weight=weights)
        model = GradientBoostingClassifier(**params).fit(X, y, sample_weight=weights)
        assert_zero_weight_rounds_carry_over(model, X, y, weights, params, [X])
        assert model.estimators_[0].n_leaves_ == 1
        np.testing.assert_array_equal(
            model.decision_function(X), np.full(10, model.init_score_)
        )


def _tree_states(node):
    """Yield the encoded state of every tree estimator in a manifest node."""
    if isinstance(node, dict):
        if node.get("class") == "repro.learners.tree.DecisionTreeRegressor":
            yield node["state"]
        for value in node.values():
            yield from _tree_states(value)
    elif isinstance(node, list):
        for value in node:
            yield from _tree_states(value)


class TestArtifactCompatibility:
    """The tree ``state_dict`` keeps the seed's format; the walk arrays are derived."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_state_predicts_identically_through_the_walk(self, seed):
        rng = np.random.default_rng(seed)
        X = _features(rng, 80, 45)
        y = rng.normal(size=80)
        oracle = ReferenceDecisionTreeRegressor(max_depth=5, max_candidate_thresholds=16).fit(X, y)
        tree = DecisionTreeRegressor(max_depth=5, max_candidate_thresholds=16)
        tree.load_state_dict(oracle.state_dict())
        for queries in (X, _features(rng, 40, 45), _threshold_rows(X, oracle)):
            assert tree.predict(queries).tobytes() == oracle.predict(queries).tobytes()

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_saved_xgb_pipeline_result_predicts_like_the_fitted_one(self, tmp_path, mmap_mode):
        data = make_drifted_groups(
            n_majority=200, n_minority=90, n_features=4, name="tree-artifact", random_state=4
        )
        split = split_dataset(data, random_state=4)
        result = FairnessPipeline("kam", learner="xgb", dataset=split, seed=1).run()
        loaded = load_artifact(save_artifact(result, tmp_path / "xgb"), mmap_mode=mmap_mode)
        deploy = split.deploy
        np.testing.assert_array_equal(
            loaded.model.predict(deploy.X, group=deploy.group),
            result.model.predict(deploy.X, group=deploy.group),
        )
        learner, fitted = loaded.model.predictor, result.model.predictor
        assert learner.predict_proba(deploy.X).tobytes() == fitted.predict_proba(deploy.X).tobytes()

    def test_no_derived_array_in_the_payload(self, tmp_path, linear_data):
        X, y = linear_data
        model = make_learner("xgb", random_state=0, n_estimators=4).fit(X, y)
        for tree in model.estimators_:
            state = tree.state_dict()
            assert set(state) == {"n_features_", "tree_"}
            assert set(state["tree_"]) == FLAT_ARRAYS

        path = save_artifact(model, tmp_path / "xgb")
        manifest = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
        states = list(_tree_states(manifest["root"]))
        assert len(states) == len(model.estimators_)
        for state in states:
            keys = [key for key, _ in state["items"]]
            assert keys == ["n_features_", "tree_"]
            assert {key for key, _ in state["items"][1][1]["items"]} == FLAT_ARRAYS
        # Seven flat arrays per tree plus the ensemble's ``classes_``.
        with np.load(path / PAYLOAD_NAME) as payload:
            assert len(payload.files) == 7 * len(model.estimators_) + 1
