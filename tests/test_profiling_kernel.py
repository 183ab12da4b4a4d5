"""Equivalence oracle for the compiled conformance kernel (Eq. 1).

The reference is the readable per-constraint semantics,
``sum_{q_i > 0} q_i * ConformanceConstraint.violations(X)`` accumulated in
constraint order.  The kernel replaces one matrix-vector product per
constraint with one matrix product per block of rows, so scores may differ
in the last bits of a projected value (declared; bounded here by 1e-12 on
full-rank partitions and by the projection rounding bound on rank-deficient
ones); rows inside every bound must score exactly 0.0, and every decision built on
the scores — DiffFair routes, ConFair's conforming rows and weights — must
be identical.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ConFair, DiffFair, PartitionProfile
from repro.exceptions import ConstraintError
from repro.profiling import CompiledConstraints, ConstraintSet, discover_constraints
from repro.profiling.kernel import BLOCK_ROWS
from repro.serving import load_artifact, save_artifact
from repro.utils.validation import check_array

SETTINGS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def reference_violation(constraint_set: ConstraintSet, X) -> np.ndarray:
    """Eq. 1 one constraint at a time, in the set's constraint order."""
    X = check_array(X, name="X")
    total = np.zeros(X.shape[0])
    for weight, constraint in zip(constraint_set.weights, constraint_set.constraints):
        if weight == 0.0:
            continue
        total += weight * constraint.violations(X)
    return total


def all_hold(constraint_set: ConstraintSet, X) -> np.ndarray:
    """Rows inside the bounds of every weighted constraint."""
    holds = np.ones(X.shape[0], dtype=bool)
    for weight, constraint in zip(constraint_set.weights, constraint_set.constraints):
        if weight != 0.0:
            holds &= constraint.satisfied(X)
    return holds


def reference_group_violations(profile: PartitionProfile, X) -> np.ndarray:
    out = np.full((X.shape[0], 2), np.inf)
    for (group, _), constraint_set in profile.constraint_sets.items():
        out[:, group] = np.minimum(out[:, group], reference_violation(constraint_set, X))
    return out


def rounding_bound(constraint_set: ConstraintSet, X) -> np.ndarray:
    """Per-row bound on ``|kernel - reference|`` from re-rounding projections.

    Two summation orders of ``F(t) = sum_j c_j t_j`` differ by at most
    ``2 d eps sum_j |c_j t_j|``, and Eq. 1 moves by at most ``1/sigma`` per
    unit of ``F``: the bound is tiny unless a projection's spread ``sigma``
    is itself at rounding level (a rank-deficient partition).
    """
    X = check_array(X, name="X")
    eps = np.finfo(np.float64).eps
    bound = np.zeros(X.shape[0])
    for weight, constraint in zip(constraint_set.weights, constraint_set.constraints):
        if weight != 0.0:
            magnitude = np.abs(X) @ np.abs(constraint.projection.as_array())
            bound += weight * 2 * X.shape[1] * eps * magnitude / max(constraint.std, 1e-12)
    return bound


@st.composite
def profiled_data(draw, *, full_rank: bool = True):
    """Profiling partitions plus scoring rows, some beyond one kernel block.

    ``full_rank`` partitions have more rows than columns; otherwise they have
    at most as many, so some principal direction has zero spread up to
    rounding.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n_features = draw(st.integers(1, 6) if full_rank else st.integers(2, 6))
    rng = np.random.default_rng(seed)
    n_partitions = draw(st.integers(1, 4))
    partitions = []
    for _ in range(n_partitions):
        rows = st.integers(n_features + 2, 80) if full_rank else st.integers(2, n_features)
        mixing = rng.normal(size=(n_features, n_features))
        partitions.append(rng.normal(size=(draw(rows), n_features)) @ mixing + rng.normal())
    n_scored = draw(st.sampled_from([1, 7, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2600]))
    spread = draw(st.floats(0.1, 4.0))
    scored = spread * rng.normal(size=(n_scored, n_features)) @ rng.normal(
        size=(n_features, n_features)
    )
    # Rows copied from a profiled partition sit mostly inside every bound.
    source = partitions[0]
    inside = source[rng.integers(0, source.shape[0], size=min(n_scored, 50))]
    scored[: inside.shape[0]] = inside
    return partitions, scored


class TestKernelEquivalence:
    @SETTINGS
    @given(profiled_data())
    def test_constraint_set_matches_reference_loop(self, data):
        partitions, X = data
        for partition in partitions:
            constraint_set = discover_constraints(partition)
            expected = reference_violation(constraint_set, X)
            got = constraint_set.violation(X)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12
            holds = all_hold(constraint_set, X)
            assert np.all(got[holds] == 0.0)

    @SETTINGS
    @given(profiled_data(full_rank=False))
    def test_rank_deficient_partitions_stay_within_rounding_bound(self, data):
        # A zero-spread direction makes Eq. 1 ill-conditioned (sigma ~ 1e-16
        # amplifies the last bit of F): the per-constraint loop's scores are
        # no more exact than the kernel's, so only the rounding bound holds.
        partitions, X = data
        for partition in partitions:
            constraint_set = discover_constraints(partition)
            expected = reference_violation(constraint_set, X)
            got = constraint_set.violation(X)
            assert np.all(np.abs(got - expected) <= 1e-12 + rounding_bound(constraint_set, X))

    @SETTINGS
    @given(profiled_data(), st.lists(st.integers(0, 1), min_size=4, max_size=4))
    def test_group_violations_match_reference_loop(self, data, groups):
        partitions, X = data
        profile = PartitionProfile()
        for index, partition in enumerate(partitions):
            key = (groups[index], index % 2)
            if key not in profile.constraint_sets:
                profile.constraint_sets[key] = discover_constraints(partition)
        expected = reference_group_violations(profile, X)
        got = profile.group_violations(X)
        assert got.shape == (X.shape[0], 2)
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        finite = np.isfinite(expected)
        assert np.max(np.abs(got[finite] - expected[finite]), initial=0.0) <= 1e-12
        for (group, _), constraint_set in profile.constraint_sets.items():
            assert np.all(got[all_hold(constraint_set, X), group] == 0.0)

    def test_zero_weight_constraints_are_dropped(self, rng):
        constraint_set = discover_constraints(rng.normal(size=(60, 3)) * [1.0, 2.0, 9.0])
        assert np.any(constraint_set.weights == 0.0)
        compiled = CompiledConstraints([constraint_set])
        assert compiled.n_slots == int(np.count_nonzero(constraint_set.weights))
        X = rng.normal(scale=5.0, size=(40, 3))
        expected = reference_violation(constraint_set, X)
        assert np.max(np.abs(constraint_set.violation(X) - expected)) <= 1e-12

    def test_slot_major_layout(self, rng):
        sets = [discover_constraints(rng.normal(size=(40, 2)) + shift) for shift in (0.0, 3.0)]
        compiled = CompiledConstraints(sets)
        for p, constraint_set in enumerate(sets):
            weighted = [c for w, c in zip(constraint_set.weights, constraint_set) if w != 0.0]
            for s, constraint in enumerate(weighted):
                column = s * compiled.n_sets + p
                assert np.array_equal(
                    compiled.projection[:, column], constraint.projection.as_array()
                )
                assert compiled.lower[column, 0] == constraint.lower

    def test_wrong_width_and_nan_are_rejected(self, rng):
        constraint_set = discover_constraints(rng.normal(size=(30, 3)))
        with pytest.raises(ConstraintError):
            constraint_set.violation(np.zeros((2, 4)))
        X = np.zeros((2, 3))
        X[1, 2] = np.nan
        with pytest.raises(ValueError):
            constraint_set.violation(X)

    def test_mixed_widths_cannot_be_compiled(self, rng):
        sets = [discover_constraints(rng.normal(size=(30, d))) for d in (2, 3)]
        with pytest.raises(ConstraintError):
            CompiledConstraints(sets)

    def test_profile_recompiles_when_its_sets_change(self, rng):
        profile = PartitionProfile()
        profile.constraint_sets[(0, 0)] = discover_constraints(rng.normal(size=(30, 2)))
        X = rng.normal(scale=3.0, size=(20, 2))
        assert np.isinf(profile.group_violations(X)[:, 1]).all()
        profile.constraint_sets[(1, 0)] = discover_constraints(rng.normal(size=(30, 2)) + 5)
        assert np.isfinite(profile.group_violations(X)).all()


# ----------------------------------------------------------------- decisions
class TestDecisionEquivalence:
    def test_diffair_routes_match_reference(self, drifted_split, lsac_split):
        for split in (drifted_split, lsac_split):
            model = DiffFair(learner="lr").fit(split.train)
            X = np.vstack([split.deploy.X, split.validation.X, split.train.X])
            numeric = X[:, : split.train.n_numeric_features]
            reference = reference_group_violations(model.profile_, numeric)
            expected = (reference[:, 1] < reference[:, 0]).astype(np.int64)
            assert np.array_equal(model.route(X), expected)
            assert np.max(np.abs(model.routing_scores(X) - reference)) <= 1e-12

    def test_confair_masks_and_weights_match_reference(
        self, drifted_split, lsac_split, monkeypatch
    ):
        fitted = [
            ConFair(learner="lr", alpha_u=1.0).fit(split.train)
            for split in (drifted_split, lsac_split)
        ]
        # Refit with every ConstraintSet scored by the per-constraint loop.
        monkeypatch.setattr(ConstraintSet, "violation", reference_violation)
        for split, model in zip((drifted_split, lsac_split), fitted):
            reference = ConFair(learner="lr", alpha_u=1.0).fit(split.train)
            assert model._conforming.keys() == reference._conforming.keys()
            for key, rows in reference._conforming.items():
                assert np.array_equal(model._conforming[key], rows)
            assert np.array_equal(model.weights_, reference.weights_)


# ----------------------------------------------------------------- artifacts
class TestArtifactRoundTrip:
    def test_compiled_form_is_not_persisted(self, drifted_split, tmp_path):
        model = DiffFair(learner="lr").fit(drifted_split.train)
        profile = model.profile_
        assert "_compiled" not in vars(profile)
        before = save_artifact(model, tmp_path / "before")
        X = drifted_split.deploy.numeric_X
        fitted_scores = profile.group_violations(X)
        assert "_compiled" in vars(profile)
        after = save_artifact(model, tmp_path / "after")

        manifests = [json.loads((path / "manifest.json").read_text()) for path in (before, after)]
        assert manifests[0]["root"] == manifests[1]["root"]
        assert "_compiled" not in (after / "manifest.json").read_text()
        with np.load(before / "payload.npz") as old, np.load(after / "payload.npz") as new:
            assert sorted(old.files) == sorted(new.files)
            for name in old.files:
                assert np.array_equal(old[name], new[name])

        loaded = load_artifact(after)
        assert "_compiled" not in vars(loaded.profile_)
        assert np.array_equal(loaded.profile_.group_violations(X), fitted_scores)
        assert np.array_equal(loaded.predict(drifted_split.deploy.X),
                              model.predict(drifted_split.deploy.X))
