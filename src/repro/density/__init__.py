"""Kernel density estimation substrate.

Algorithm 3 of the paper ranks tuples by their estimated density and keeps
the densest ``k`` tuples per partition.  This subpackage provides that
substrate:

* :class:`KernelDensity` — the Gaussian KDE, with a fixed bandwidth or
  Scott's rule (:func:`scott_bandwidth`).  ``score_samples`` evaluates the
  whole query batch through :class:`BruteBackend`, which returns log kernel
  sums from one gemm per block of query rows, summed in log space (a
  log-sum-exp): log-densities are finite however far a row lies from the
  data and agree with the seed's to a few ulps.  Rows whose norms would
  overflow that expansion are scored from direct differences instead.  The
  test suite keeps the seed implementation in ``tests/density_reference.py``
  as its oracle, and checks Algorithm 3's kept rows against it.
* Backends are memoized across fits by a content-keyed LRU
  (:func:`get_backend` / :func:`clear_backend_cache`), so Algorithm 3
  sweeps share one backend per partition.

Thread safety
-------------
The engine is designed to be shared by concurrent fits (parallel partition
profiling, ``run_repeated`` worker threads):

* the module-level backend LRU behind :func:`get_backend` is guarded by a
  single lock around lookup/insert/evict and **deduplicates builds
  per key** — two threads profiling the same partition wait on one
  construction instead of building the backend twice
  (:func:`backend_cache_stats` exposes hits/builds/evictions/waits);
* fitted backends are immutable after construction and safe to query from
  any number of threads;
* a fitted :class:`KernelDensity` is safe for concurrent
  ``score_samples`` / ``density_rank`` calls.  ``fit`` itself mutates the
  estimator, so do not share one *unfitted* estimator across threads —
  fit per thread (the backend cache makes refits over the same partition
  cheap) or fit once before fanning out.
"""

from repro.density.backends import (
    BruteBackend,
    backend_cache_size,
    backend_cache_stats,
    clear_backend_cache,
    get_backend,
)
from repro.density.kde import KernelDensity, scott_bandwidth

__all__ = [
    "BruteBackend",
    "KernelDensity",
    "backend_cache_size",
    "backend_cache_stats",
    "clear_backend_cache",
    "get_backend",
    "scott_bandwidth",
]
