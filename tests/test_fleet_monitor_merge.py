"""Property-based tests for ``FairnessMonitor`` merging.

The merge contract the fleet is built on, exercised with hypothesis:

* **sharding invariance** — split a sequence-stamped stream across K shard
  monitors *any* way, merge them, and the ``state_dict`` equals the
  monolithic monitor's exactly (bit-identical floats, not approximately);
* **associativity** — ``merge(merge(a, b), c) == merge(a, merge(b, c))``;
* **order invariance** — shards can be merged in any order;
* duplicate sequence stamps and mismatched configs/baselines are rejected.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.serving import FairnessMonitor, MonitorThresholds

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make_monitor(window_size=180) -> FairnessMonitor:
    monitor = FairnessMonitor(
        window_size=window_size,
        thresholds=MonitorThresholds(min_samples=20, group_tolerance=0.2),
    )
    monitor.set_baselines(group_fraction=0.3)
    return monitor


def make_batches(seed: int, n_batches: int):
    """Sequence-stamped synthetic traffic: (sequence, y_pred, group, y_true)."""
    rng = np.random.default_rng(seed)
    batches = []
    for sequence in range(n_batches):
        size = int(rng.integers(5, 60))
        batches.append(
            (
                sequence,
                rng.integers(0, 2, size),
                rng.integers(0, 2, size),
                rng.integers(0, 2, size),
            )
        )
    return batches


def feed(monitor: FairnessMonitor, batches) -> FairnessMonitor:
    for sequence, y_pred, group, y_true in batches:
        monitor.update(y_pred, group, y_true=y_true, sequence=sequence)
    return monitor


def assert_states_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        if isinstance(a[key], np.ndarray) or isinstance(b[key], np.ndarray):
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)
        else:
            assert a[key] == b[key], key


def shard_assignments(n_batches: int, n_shards: int):
    return st.lists(
        st.integers(0, n_shards - 1), min_size=n_batches, max_size=n_batches
    )


class TestShardingInvariance:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_shards=st.integers(2, 6),
        data=st.data(),
    )
    def test_any_shard_split_merges_to_the_monolithic_state(self, seed, n_shards, data):
        batches = make_batches(seed, n_batches=14)
        assignment = data.draw(shard_assignments(len(batches), n_shards))

        monolith = feed(make_monitor(), batches)
        shards = [make_monitor() for _ in range(n_shards)]
        for batch, shard_index in zip(batches, assignment):
            feed(shards[shard_index], [batch])

        merged = FairnessMonitor.merge(*shards)
        assert_states_equal(monolith.state_dict(), merged.state_dict())
        assert merged.windowed_report().to_dict() == monolith.windowed_report().to_dict()
        assert merged.group_status() == monolith.group_status()
        assert merged.drift_status() == monolith.drift_status()

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_eviction_agrees_across_the_split(self, seed):
        # A tiny window forces evictions on both sides of the merge.
        batches = make_batches(seed, n_batches=12)
        monolith = feed(make_monitor(window_size=40), batches)
        even = feed(make_monitor(window_size=40), batches[::2])
        odd = feed(make_monitor(window_size=40), batches[1::2])
        merged = FairnessMonitor.merge(even, odd)
        assert_states_equal(monolith.state_dict(), merged.state_dict())
        assert merged.n_window == monolith.n_window
        assert merged.n_seen == monolith.n_seen


class TestMergeAlgebra:
    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_merge_is_associative(self, seed):
        batches = make_batches(seed, n_batches=12)
        a = feed(make_monitor(), batches[0::3])
        b = feed(make_monitor(), batches[1::3])
        c = feed(make_monitor(), batches[2::3])
        left = FairnessMonitor.merge(FairnessMonitor.merge(a, b), c)
        right = FairnessMonitor.merge(a, FairnessMonitor.merge(b, c))
        assert_states_equal(left.state_dict(), right.state_dict())

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1), order=st.permutations([0, 1, 2]))
    def test_merge_is_order_invariant(self, seed, order):
        batches = make_batches(seed, n_batches=12)
        shards = [feed(make_monitor(), batches[i::3]) for i in range(3)]
        reference = FairnessMonitor.merge(*shards)
        shuffled = FairnessMonitor.merge(*(shards[i] for i in order))
        assert_states_equal(reference.state_dict(), shuffled.state_dict())

    def test_merge_of_one_is_a_copy(self):
        shard = feed(make_monitor(), make_batches(5, 6))
        merged = FairnessMonitor.merge(shard)
        assert_states_equal(shard.state_dict(), merged.state_dict())
        assert merged is not shard

    def test_staged_merge_respects_the_eviction_horizon(self):
        """Regression: a staged merge that evicted must reject older chunks.

        ``merge(a, b)`` overflows the window and evicts sequence 1 (n=200);
        ``c`` holds sequence 0 (n=50), *older* than anything the pair
        retained.  Without the eviction horizon the second stage would keep
        chunk 0 (50 + 300 rows fits the 350 window), but the union stream —
        and therefore ``merge(a, b, c)`` — evicts it when chunk 1 pushes the
        window over.  The horizon makes every merge tree agree with the
        monolithic monitor.
        """
        def batch(sequence, size):
            rng = np.random.default_rng(sequence)
            return (sequence, rng.integers(0, 2, size), rng.integers(0, 2, size),
                    rng.integers(0, 2, size))

        batches = [batch(0, 50), batch(1, 200), batch(2, 100), batch(3, 100),
                   batch(4, 100)]
        a = feed(make_monitor(350), [batches[1], batches[2]])
        b = feed(make_monitor(350), [batches[3], batches[4]])
        c = feed(make_monitor(350), [batches[0]])
        monolithic = feed(make_monitor(350), batches)
        assert monolithic.state_dict()["chunk_sequences_"].tolist() == [2, 3, 4]

        staged = FairnessMonitor.merge(FairnessMonitor.merge(a, b), c)
        assert_states_equal(staged.state_dict(), monolithic.state_dict())
        assert_states_equal(
            FairnessMonitor.merge(a, b, c).state_dict(), monolithic.state_dict()
        )
        assert_states_equal(
            FairnessMonitor.merge(c, FairnessMonitor.merge(b, a)).state_dict(),
            monolithic.state_dict(),
        )


class TestMergeValidation:
    def test_duplicate_sequences_rejected(self):
        a = make_monitor()
        b = make_monitor()
        a.update(np.ones(4, dtype=int), np.ones(4, dtype=int), sequence=3)
        b.update(np.zeros(4, dtype=int), np.zeros(4, dtype=int), sequence=3)
        with pytest.raises(ValidationError, match="sequence"):
            FairnessMonitor.merge(a, b)

    def test_mismatched_window_rejected(self):
        with pytest.raises(ValidationError, match="window_size"):
            FairnessMonitor.merge(make_monitor(180), make_monitor(200))

    def test_mismatched_baseline_rejected(self):
        a, b = make_monitor(), make_monitor()
        b.set_baselines(group_fraction=0.9)
        with pytest.raises(ValidationError, match="baseline"):
            FairnessMonitor.merge(a, b)

    def test_merge_needs_at_least_one_monitor(self):
        with pytest.raises(ValidationError):
            FairnessMonitor.merge()

    def test_explicit_and_assigned_sequences_interleave(self):
        # A monitor that self-assigns after an explicit stamp continues past it.
        monitor = make_monitor()
        monitor.update(np.ones(3, dtype=int), np.ones(3, dtype=int), sequence=7)
        monitor.update(np.ones(3, dtype=int), np.ones(3, dtype=int))
        state = monitor.state_dict()
        assert list(state["chunk_sequences_"]) == [7, 8]

    def test_negative_sequence_rejected(self):
        with pytest.raises(ValidationError, match="sequence"):
            make_monitor().update(np.ones(3, dtype=int), np.ones(3, dtype=int), sequence=-1)
