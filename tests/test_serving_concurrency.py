"""Concurrency contract of ``PredictionService``.

Pins exact ``ServiceStats`` accounting and the monitor feed under threaded
callers (the counters are read-modify-write and used to race), scoring
outside the service's lock, and an explicit error for ``predict`` after
``close()``.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serving import FairnessMonitor, PredictionService

N_THREADS = 8
N_REQUESTS_PER_THREAD = 25
ROWS_PER_REQUEST = 13


class _ThresholdModel:
    """Trivial deterministic predictor (first feature above zero)."""

    def predict(self, X):
        return (np.asarray(X)[:, 0] > 0).astype(np.int64)


def _request_batch(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(ROWS_PER_REQUEST, 4))


def _hammer(service: PredictionService) -> None:
    barrier = threading.Barrier(N_THREADS)

    def worker(thread_id: int) -> None:
        barrier.wait()
        for request in range(N_REQUESTS_PER_THREAD):
            X = _request_batch(thread_id * 1000 + request)
            predictions = service.predict(X, group=(X[:, 1] > 0).astype(np.int64))
            assert predictions.shape == (ROWS_PER_REQUEST,)

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        for future in [pool.submit(worker, t) for t in range(N_THREADS)]:
            future.result()


def test_service_stats_exact_under_threaded_load():
    service = PredictionService(_ThresholdModel(), batch_size=4)
    _hammer(service)
    assert service.stats.n_requests == N_THREADS * N_REQUESTS_PER_THREAD
    assert service.stats.n_records == (
        N_THREADS * N_REQUESTS_PER_THREAD * ROWS_PER_REQUEST
    )
    assert service.stats.total_seconds > 0


def test_monitor_sees_every_record_under_threaded_load():
    monitor = FairnessMonitor(window_size=10**6)
    service = PredictionService(_ThresholdModel(), batch_size=4, monitor=monitor)
    _hammer(service)
    assert monitor.n_seen == N_THREADS * N_REQUESTS_PER_THREAD * ROWS_PER_REQUEST


def test_a_request_being_scored_does_not_block_another(monkeypatch):
    """Scoring runs outside the lock: while one request is held inside the
    monitor's ``score``, another request is served and committed."""
    monitor = FairnessMonitor(window_size=10**6)
    service = PredictionService(_ThresholdModel(), monitor=monitor)
    entered, release = threading.Event(), threading.Event()
    score = monitor.score

    def held_first_score(*args, **kwargs):
        if not entered.is_set():
            entered.set()
            release.wait(timeout=30)
        return score(*args, **kwargs)

    monkeypatch.setattr(monitor, "score", held_first_score)
    first = threading.Thread(target=service.predict, args=(_request_batch(0),))
    first.start()
    try:
        assert entered.wait(timeout=30)
        service.predict(_request_batch(1))
        assert monitor.n_seen == ROWS_PER_REQUEST
    finally:
        release.set()
        first.join(timeout=30)
    assert not first.is_alive()
    assert monitor.n_seen == 2 * ROWS_PER_REQUEST
    assert service.stats.n_requests == 2


@pytest.mark.parametrize("served_before_close", [True, False], ids=["served", "fresh"])
def test_predict_after_close_raises(served_before_close):
    service = PredictionService(_ThresholdModel(), batch_size=4)
    if served_before_close:
        service.predict(_request_batch(0))
    service.close()
    with pytest.raises(ValidationError, match="closed"):
        service.predict(_request_batch(1))


def test_close_is_idempotent_and_context_manager_still_works():
    with PredictionService(_ThresholdModel()) as service:
        service.predict(_request_batch(3))
    service.close()  # second close is a no-op
    with pytest.raises(ValidationError):
        service.predict(_request_batch(4))
