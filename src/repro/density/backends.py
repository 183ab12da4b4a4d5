"""Blockwise brute-force Gaussian log kernel sums for ``KernelDensity``, and their cache.

:class:`BruteBackend` holds the training sample and evaluates, for a whole
batch of query rows at once, the log of the *unnormalized Gaussian kernel
sum*

    ``log S(x) = log sum_i exp(-||x - x_i||^2 / (2 h^2))``

(:class:`~repro.density.kde.KernelDensity` turns that into a normalized
log-density).  Each block makes one gemm against the training sample and
works in log space, in place on that one buffer:
``E = -max(||x||^2 + ||y||^2 - 2 x.y, 0) / (2 h^2)`` and
``log S = m + log sum exp(E - m)`` with ``m`` the row maximum (the
log-sum-exp of Blanchard, Higham & Higham, IMA J. Numer. Anal., 2021), so a
row's score is finite however far it lies from the data; only a row whose
every squared distance overflows scores ``-inf``.

The expansion overflows once ``||x|| + ||y||`` nears ``1.3e154``, where
``inf - inf`` would score NaN or a saturated ``-2 x.y`` would score a far row
as if it lay on the data.  Each backend therefore fixes, at build, the
largest query ``||x||^2`` the expansion can take against its training rows;
the rows of a block past it are scored from direct differences ``x - y``
instead.

Backends are memoized in a small module-level LRU keyed by a content
fingerprint of the training sample, so repeated fits over the same partition
— ConFair degree sweeps, Algorithm 3 re-runs, profile rebuilds — share one
backend.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.telemetry import get_registry as _get_telemetry_registry

_NORM_ROOM = math.sqrt(np.finfo(np.float64).max / 2.0)
"""Bound on ``||x|| + ||y||`` below which the expansion stays finite: every
term and partial sum of ``||x||^2 + ||y||^2 - 2 x.y`` is at most
``(||x|| + ||y||)^2`` (Cauchy-Schwarz), and the factor of two covers the
gemm's rounding."""


class BruteBackend:
    """Blockwise brute-force Gaussian log kernel sums over one training sample.

    Immutable once built: the training norms ``||y||^2`` and the query norm
    limit of the expansion are computed here, once, and every query reuses
    them.
    """

    def __init__(self, training_data: np.ndarray) -> None:
        self._train = training_data
        self._train_sq = np.einsum("ij,ij->i", training_data, training_data)
        room = _NORM_ROOM - math.sqrt(float(self._train_sq.max(initial=0.0)))
        self._query_sq_limit = room * room if room > 0 else -1.0

    def log_kernel_sums(self, X: np.ndarray, bandwidth: float) -> np.ndarray:
        """``log S(x)``, the log of the unnormalized Gaussian kernel sum, for every row of ``X``."""
        train = self._train
        train_sq = self._train_sq
        out = np.empty(X.shape[0], dtype=np.float64)
        # Pairwise squared distances via ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b,
        # in blocks of query rows that bound each block's n x m gemm output.
        block = max(1, int(4e6 // max(train.shape[0], 1)))
        for start in range(0, X.shape[0], block):
            chunk = X[start : start + block]
            chunk_sq = np.einsum("ij,ij->i", chunk, chunk)
            if chunk_sq.max() <= self._query_sq_limit:
                sums = _gaussian_log_sums(chunk @ train.T, chunk_sq, train_sq, bandwidth)
            else:
                sums = self._guarded_log_sums(chunk, chunk_sq, bandwidth)
            out[start : start + block] = sums
        return out

    def _guarded_log_sums(
        self, chunk: np.ndarray, chunk_sq: np.ndarray, bandwidth: float
    ) -> np.ndarray:
        """A block holding rows past the norm limit: those rows from direct differences.

        The expansion still runs on the whole block, so every row within the
        limit keeps the bits of the common path; the overflow it meets in the
        other rows is discarded with them.
        """
        far = chunk_sq > self._query_sq_limit
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _gaussian_log_sums(chunk @ self._train.T, chunk_sq, self._train_sq, bandwidth)
            diffs = (self._train - row for row in chunk[far])
            squared = np.stack([np.einsum("ij,ij->i", diff, diff) for diff in diffs])
            sums[far] = _log_sum_exp(squared, bandwidth)
        return sums


def _gaussian_log_sums(
    gram: np.ndarray, chunk_sq: np.ndarray, train_sq: np.ndarray, bandwidth: float
) -> np.ndarray:
    """``log sum_j exp(-d_ij^2 / (2 h^2))`` per row, in place on the gemm output ``gram``."""
    squared = gram
    squared *= -2.0
    squared += chunk_sq[:, None]
    squared += train_sq
    np.maximum(squared, 0.0, out=squared)
    return _log_sum_exp(squared, bandwidth)


def _log_sum_exp(squared: np.ndarray, bandwidth: float) -> np.ndarray:
    """``log sum_j exp(-squared_ij / (2 h^2))`` per row, in place on ``squared``."""
    energy = squared
    energy *= -0.5 / (bandwidth * bandwidth)
    peak = energy.max(axis=1)
    # A row whose every squared distance overflowed has peak -inf; shifting
    # by 0 instead keeps E - peak at -inf (not NaN), so the row scores -inf.
    peak[np.isneginf(peak)] = 0.0
    energy -= peak[:, None]
    np.exp(energy, out=energy)
    with np.errstate(divide="ignore"):
        return peak + np.log(energy.sum(axis=1))


# --------------------------------------------------------------------------
# per-fit backend cache (shared across threads)
# --------------------------------------------------------------------------

_CACHE_CAPACITY = 16
_CACHE: "OrderedDict[tuple, BruteBackend]" = OrderedDict()
_CACHE_LOCK = threading.Lock()
"""Guards every read/write of ``_CACHE``, ``_PENDING``, and ``_STATS``.

The lookup / ``move_to_end`` / insert / ``popitem`` sequence on an
``OrderedDict`` is not atomic: unsynchronized concurrent fits could corrupt
the dict's internal linked list or build the same backend twice.  The lock
is held only around bookkeeping — never while a backend is being *built* —
so concurrent builds of distinct keys still overlap.
"""

_PENDING: Dict[tuple, "_PendingBuild"] = {}
"""In-flight builds keyed like the cache: the per-key build deduplicator."""

_STATS = {"hits": 0, "builds": 0, "evictions": 0, "build_waits": 0}


class _PendingBuild:
    """Rendezvous for threads requesting a backend that is being built."""

    __slots__ = ("event", "backend", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.backend: Optional[BruteBackend] = None
        self.error: Optional[BaseException] = None


def _fingerprint(X: np.ndarray) -> Tuple[str, Tuple[int, ...], str]:
    """Content fingerprint of a training sample (digest, shape, dtype)."""
    data = np.ascontiguousarray(X)
    digest = hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
    return digest, data.shape, str(data.dtype)


def get_backend(X: np.ndarray) -> BruteBackend:
    """Build (or fetch from the shared LRU cache) the backend over ``X``.

    The cache key is the training sample's *content* (digest, shape,
    dtype), so two independent fits over the same partition share one
    backend, whatever their bandwidth.

    The cache is **thread-safe and build-deduplicating**: concurrent callers
    may use it freely (parallel partition profiling, ``run_repeated``
    worker threads), and when two threads request the same key while it is
    being built, one builds and the other waits for the finished backend —
    each key is built exactly once.  Backends themselves are immutable after
    construction and safe to share across threads.
    """
    key = _fingerprint(X)
    with _CACHE_LOCK:
        backend = _CACHE.get(key)
        if backend is not None:
            _CACHE.move_to_end(key)
            _STATS["hits"] += 1
            return backend
        pending = _PENDING.get(key)
        if pending is None:
            pending = _PendingBuild()
            _PENDING[key] = pending
            building = True
        else:
            _STATS["build_waits"] += 1
            building = False

    if not building:
        # Another thread is building this exact backend; wait for it rather
        # than duplicating the construction.
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.backend is not None
        return pending.backend

    try:
        backend = BruteBackend(X)
    except BaseException as exc:
        pending.error = exc
        with _CACHE_LOCK:
            _PENDING.pop(key, None)
        pending.event.set()
        raise
    pending.backend = backend
    with _CACHE_LOCK:
        _CACHE[key] = backend
        _STATS["builds"] += 1
        while len(_CACHE) > _CACHE_CAPACITY:
            _CACHE.popitem(last=False)
            _STATS["evictions"] += 1
        _PENDING.pop(key, None)
    pending.event.set()
    return backend


def clear_backend_cache() -> None:
    """Drop every cached backend and reset the cache statistics.

    Mainly for tests and memory pressure.  In-flight builds are unaffected
    (their waiters still receive the built backend); the built backends
    simply re-enter an empty cache.
    """
    with _CACHE_LOCK:
        _CACHE.clear()
        for stat in _STATS:
            _STATS[stat] = 0


def backend_cache_size() -> int:
    """Number of currently cached backends."""
    with _CACHE_LOCK:
        return len(_CACHE)


def backend_cache_stats() -> Dict[str, int]:
    """Snapshot of cumulative cache counters since the last clear.

    ``hits``
        Lookups served from the cache.
    ``builds``
        Backends actually constructed (each key is built at most once per
        residency — the single-build guarantee concurrent profiling relies
        on).
    ``evictions``
        LRU evictions past the cache capacity.
    ``build_waits``
        Requests that found their key mid-build and waited for the builder
        instead of duplicating the construction.
    """
    with _CACHE_LOCK:
        return dict(_STATS)


def _telemetry_collector(registry) -> None:
    # Folds the cache counters into gauges at export/state_dict time — the
    # hot path (get_backend under _CACHE_LOCK) stays untouched, and the
    # collector never runs while _CACHE_LOCK is held, so the two locks
    # cannot interleave.
    for stat, value in backend_cache_stats().items():
        registry.gauge(f"density.backend_cache.{stat}").set(float(value))


_get_telemetry_registry().add_collector(_telemetry_collector)
