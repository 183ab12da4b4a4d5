"""Benchmark: the boosted-tree learner (registry ``xgb``), fit and predict.

Two timings on the meps surrogate at ``size_factor=0.05`` (seed 7: 373
training rows, 123 features), the split perfbench's ``fit`` workload trains
on:

* the registry ``xgb`` fit (30 depth-3 trees, 16 candidate thresholds per
  feature) under non-uniform sample weights, as in ConFair's reweighed refits;
* ``predict_proba`` on 10,000 rows (the deploy split, tiled).

Correctness is asserted outside the timed region: the model saved and
loaded back has byte-identical tree arrays and probabilities, and the
weighted training loss falls at every round.  Both benchmarks feed the CI
benchmark-regression gate (``compare_benchmarks.py --select tree_learner``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset, split_dataset
from repro.learners import make_learner
from repro.serving.artifacts import load_artifact, save_artifact

N_PREDICT_ROWS = 10_000


@pytest.fixture(scope="module")
def meps_split():
    return split_dataset(load_dataset("meps", size_factor=0.05, random_state=7), random_state=7)


@pytest.fixture(scope="module")
def weights(meps_split):
    return np.random.default_rng(7).uniform(0.5, 2.0, size=meps_split.train.n_samples)


def _fit(split, weights):
    return make_learner("xgb", random_state=0).fit(split.train.X, split.train.y, weights)


def _assert_round_trip_and_losses(model, path, X):
    loaded = load_artifact(save_artifact(model, path))
    for tree, restored in zip(model.estimators_, loaded.estimators_, strict=True):
        fitted, reloaded = tree.state_dict()["tree_"], restored.state_dict()["tree_"]
        for name, array in fitted.items():
            assert reloaded[name].tobytes() == array.tobytes(), name
    assert loaded.predict_proba(X).tobytes() == model.predict_proba(X).tobytes()
    assert np.all(np.diff(model.train_losses_) < 0)


def test_tree_learner_xgb_fit(benchmark, meps_split, weights, tmp_path):
    model = benchmark(_fit, meps_split, weights)

    _assert_round_trip_and_losses(model, tmp_path / "xgb", meps_split.train.X)
    benchmark.extra_info["n_rows"] = meps_split.train.n_samples
    benchmark.extra_info["n_features"] = meps_split.train.X.shape[1]
    benchmark.extra_info["n_trees"] = len(model.estimators_)


def test_tree_learner_xgb_predict_proba_10k_rows(benchmark, meps_split, weights, tmp_path):
    model = _fit(meps_split, weights)
    deploy = meps_split.deploy.X
    X = np.tile(deploy, (N_PREDICT_ROWS // len(deploy) + 1, 1))[:N_PREDICT_ROWS]

    proba = benchmark(model.predict_proba, X)

    assert proba.shape == (N_PREDICT_ROWS, 2)
    _assert_round_trip_and_losses(model, tmp_path / "xgb", X)
    benchmark.extra_info["n_rows"] = N_PREDICT_ROWS
    benchmark.extra_info["rows_per_second"] = round(N_PREDICT_ROWS / benchmark.stats.stats.mean, 1)
