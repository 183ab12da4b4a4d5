"""Hammer tests for the shared, thread-safe density-backend cache.

The module-level LRU in :mod:`repro.density.backends` used to run its
check-then-insert / ``move_to_end`` / eviction ``popitem`` sequence
unsynchronized; concurrent fits could corrupt the ``OrderedDict`` or build
the same backend twice.  These tests pin down the fixed contract:
cache integrity under threaded load, exactly one build per key, correct
results for every caller, and error propagation to build waiters.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.density import backends as backends_module
from repro.density.backends import (
    backend_cache_size,
    backend_cache_stats,
    clear_backend_cache,
    get_backend,
)
from repro.exceptions import ValidationError

N_THREADS = 8
N_CALLS_PER_THREAD = 25


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_backend_cache()
    yield
    clear_backend_cache()


def _sample(seed: int, n_rows: int = 200, n_dims: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n_rows, n_dims))


def test_hammer_same_key_builds_once():
    """Many threads requesting one key get one shared structure, built once."""
    X = _sample(0)
    barrier = threading.Barrier(N_THREADS)

    def worker() -> list:
        barrier.wait()
        return [get_backend(X) for _ in range(N_CALLS_PER_THREAD)]

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        results = [f.result() for f in [pool.submit(worker) for _ in range(N_THREADS)]]

    returned = {id(backend) for per_thread in results for backend in per_thread}
    assert len(returned) == 1, "every caller must receive the same cached backend"
    assert backend_cache_size() == 1
    stats = backend_cache_stats()
    assert stats["builds"] == 1, f"backend was built {stats['builds']} times"
    assert stats["hits"] == N_THREADS * N_CALLS_PER_THREAD - 1 - stats["build_waits"]


def test_hammer_slow_build_deduplicates():
    """A build in flight is awaited, not repeated (widened race window)."""
    X = _sample(1)
    real_build = backends_module.BruteBackend
    started = threading.Event()

    def slow_build(data):
        started.set()
        # Keep the build in flight long enough for the other threads to
        # arrive while the key is pending.
        threading.Event().wait(0.05)
        return real_build(data)

    backends_module.BruteBackend = slow_build
    try:
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            futures = [pool.submit(get_backend, X) for _ in range(N_THREADS)]
            backends = [f.result() for f in futures]
    finally:
        backends_module.BruteBackend = real_build

    assert len({id(b) for b in backends}) == 1
    stats = backend_cache_stats()
    assert stats["builds"] == 1
    assert stats["build_waits"] >= 1, "the widened window must exercise the wait path"


def test_hammer_mixed_keys_cache_integrity():
    """Concurrent distinct keys past the LRU capacity keep the cache coherent."""
    n_keys = backends_module._CACHE_CAPACITY + 6
    samples = [_sample(seed + 10) for seed in range(n_keys)]
    expected = {}
    for seed, X in enumerate(samples):
        backend = get_backend(X)
        expected[seed] = backend.log_kernel_sums(X[:20], 0.8)
    clear_backend_cache()

    def worker(thread_seed: int) -> None:
        order = np.random.default_rng(thread_seed).permutation(n_keys)
        for seed in order:
            X = samples[seed]
            backend = get_backend(X)
            sums = backend.log_kernel_sums(X[:20], 0.8)
            np.testing.assert_array_equal(sums, expected[seed])

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        for future in [pool.submit(worker, t) for t in range(N_THREADS)]:
            future.result()

    assert backend_cache_size() <= backends_module._CACHE_CAPACITY
    stats = backend_cache_stats()
    # Every key is rebuilt after an eviction at most; the dict never loses
    # track of entries (a corrupted OrderedDict typically blows up above,
    # but the size bound is the explicit invariant).
    assert stats["builds"] >= n_keys
    assert not backends_module._PENDING, "no pending builds may leak"


def test_build_failure_propagates_to_waiters():
    """A failing build raises in the builder and every waiting thread."""
    X = _sample(2)
    real_build = backends_module.BruteBackend

    def failing_build(data):
        threading.Event().wait(0.02)
        raise ValidationError("synthetic build failure")

    backends_module.BruteBackend = failing_build
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(get_backend, X) for _ in range(4)]
            errors = []
            for future in futures:
                with pytest.raises(ValidationError):
                    future.result()
                errors.append(True)
    finally:
        backends_module.BruteBackend = real_build

    assert len(errors) == 4
    assert not backends_module._PENDING, "failed builds must not leak pending entries"
    # The key is retryable once the failure cause is gone.
    backend = get_backend(X)
    assert backend is get_backend(X)


def test_cache_stats_reset_on_clear():
    X = _sample(3)
    get_backend(X)
    get_backend(X)
    stats = backend_cache_stats()
    assert stats["builds"] == 1 and stats["hits"] == 1
    clear_backend_cache()
    assert backend_cache_stats() == {
        "hits": 0,
        "builds": 0,
        "evictions": 0,
        "build_waits": 0,
    }
