"""Kernel density estimation over pluggable batch backends.

This mirrors the scikit-learn ``KernelDensity`` API used by Algorithm 3 of
the paper: ``fit(X)`` then ``score_samples(X)`` returning log-densities.
Only the *relative ranking* of densities matters to the density-filtering
optimization, but the estimator is a proper normalized KDE so it is usable as
a general substrate (and testable against analytic ground truth).

``score_samples`` is batch-first: the whole query matrix is evaluated by one
of the :class:`~repro.density.backends.DensityBackend` implementations
(``brute``, ``kd_tree``, ``grid``) with no Python loop over rows.  Backend
selection is explicit via ``algorithm=`` (see :meth:`KernelDensity.fit`),
and fitted structures are memoized across fits of the same partition by the
backend cache in :mod:`repro.density.backends`.

The frozen-equivalence guarantee (see :mod:`repro.density.reference`): each
backend is bit-identical to the seed implementation's corresponding
evaluation path — ``kd_tree`` and ``grid`` reproduce the seed's per-row tree
scoring exactly (and are bit-identical to *each other*; they share the same
arithmetic), and ``brute`` is the seed blockwise code unchanged.  ``brute``
and the tree/grid pair use different (equally exact) distance expansions, so
across that divide log-densities agree to ulp precision rather than bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.density.backends import (
    ALGORITHM_NAMES,
    BACKEND_NAMES,
    get_backend,
    resolve_algorithm,
)
from repro.density.kernels import kernel_by_name, log_normalization
from repro.exceptions import ValidationError
from repro.learners.base import BaseEstimator
from repro.utils.validation import check_array


def scott_bandwidth(X: np.ndarray) -> float:
    """Scott's rule of thumb: ``n**(-1/(d+4))`` times the mean feature std."""
    X = check_array(X, name="X")
    n_samples, n_dims = X.shape
    sigma = float(np.mean(X.std(axis=0)))
    if sigma <= 0:
        sigma = 1.0
    return sigma * n_samples ** (-1.0 / (n_dims + 4.0))


def silverman_bandwidth(X: np.ndarray) -> float:
    """Silverman's rule of thumb: ``(n*(d+2)/4)**(-1/(d+4))`` times the mean std."""
    X = check_array(X, name="X")
    n_samples, n_dims = X.shape
    sigma = float(np.mean(X.std(axis=0)))
    if sigma <= 0:
        sigma = 1.0
    return sigma * (n_samples * (n_dims + 2.0) / 4.0) ** (-1.0 / (n_dims + 4.0))


class KernelDensity(BaseEstimator):
    """Kernel density estimator with pluggable batch backends.

    Parameters
    ----------
    bandwidth:
        Positive kernel bandwidth, or ``"scott"`` / ``"silverman"`` to derive
        it from the training data.
    kernel:
        ``"gaussian"``, ``"tophat"``, or ``"epanechnikov"``.
    algorithm:
        Which :class:`~repro.density.backends.DensityBackend` evaluates
        ``score_samples``:

        * ``"brute"`` — blockwise pairwise distances (every kernel);
        * ``"kd_tree"`` — batch KD-tree radius search (compact kernels;
          silently scores brute for the Gaussian kernel, whose support is
          unbounded);
        * ``"grid"`` — bandwidth-sized spatial hash, a ``3**d``-cell gather
          per query (compact kernels on hashable data only — otherwise
          ``fit`` raises :class:`~repro.exceptions.ValidationError`);
        * ``"auto"`` (default) — for compact kernels on at least
          ``4 * leaf_size`` rows: the grid when the data has at most 3
          dimensions and hashes cleanly, the KD-tree otherwise; brute for
          everything else (including the Gaussian kernel always).

        ``kd_tree`` and ``grid`` return bit-identical log-densities (to each
        other and to the seed tree path); ``brute`` agrees with them to ulp
        precision, so ranks can differ only between genuinely tied
        densities.  The resolved name is stored as ``algorithm_`` after
        :meth:`fit`.
    leaf_size:
        Leaf size of the KD-tree backend.
    dtype:
        Working precision of the distance kernels: ``"float64"`` (default,
        the frozen-reference precision) or ``"float32"``, an opt-in speed
        path that stores the training sample and evaluates the pairwise
        distance kernels in single precision (roughly halving the memory
        traffic of the brute backend's blockwise matmul — the Gaussian
        kernel's only evaluation path).  The bandwidth is always resolved
        from the float64 data, and log-densities are returned as float64
        arrays either way.  Absolute log-densities shift by float32
        round-off; what Algorithm 3 consumes is the density *ranking*, whose
        equivalence against the float64 reference is gated by the test
        suite (``tests/test_parallel_profiling.py``) — rank flips can occur
        only between rows whose densities are closer than single-precision
        resolution.  The spatial-index backends (``kd_tree``/``grid``)
        compute their exact distances in float64 regardless.
    """

    # Fitted attributes that fully determine predictions; the backend
    # structure itself is derived state — it is rebuilt lazily from
    # ``algorithm_`` + the training sample (via the backend cache) after a
    # load, which keeps artifacts small and the round trip bit-identical.
    _state_attributes = ("bandwidth_", "training_data_", "n_features_", "algorithm_")

    def __init__(
        self,
        bandwidth="scott",
        kernel: str = "gaussian",
        algorithm: str = "auto",
        leaf_size: int = 32,
        dtype: str = "float64",
    ) -> None:
        self.bandwidth = bandwidth
        self.kernel = kernel
        self.algorithm = algorithm
        self.leaf_size = leaf_size
        self.dtype = dtype

    # -------------------------------------------------------------------- fit
    def fit(self, X) -> "KernelDensity":
        """Store the training sample and resolve the bandwidth/backend."""
        X = check_array(X, name="X")
        kernel_by_name(self.kernel)  # validate the kernel name early
        if self.algorithm not in ALGORITHM_NAMES:
            raise ValidationError(
                "algorithm must be 'auto', 'brute', 'kd_tree', or 'grid'"
            )
        if str(self.dtype) not in ("float64", "float32"):
            raise ValidationError("dtype must be 'float64' or 'float32'")

        if isinstance(self.bandwidth, str):
            rule = self.bandwidth.strip().lower()
            if rule == "scott":
                resolved = scott_bandwidth(X)
            elif rule == "silverman":
                resolved = silverman_bandwidth(X)
            else:
                raise ValidationError(
                    f"Unknown bandwidth rule {self.bandwidth!r}; use 'scott' or 'silverman'"
                )
        else:
            resolved = float(self.bandwidth)
        if resolved <= 0:
            raise ValidationError("bandwidth must resolve to a positive value")

        self.bandwidth_ = resolved
        # The bandwidth above is always resolved from the float64 data; the
        # opt-in float32 path only lowers the precision of the stored sample
        # and the distance kernels evaluated against it.
        self.training_data_ = X.astype(np.dtype(str(self.dtype)), copy=True)
        self.n_features_ = X.shape[1]
        self.algorithm_ = resolve_algorithm(
            self.algorithm,
            self.kernel,
            self.training_data_,
            leaf_size=self.leaf_size,
            bandwidth=resolved,
        )
        self._backend = get_backend(
            self.algorithm_,
            self.training_data_,
            leaf_size=self.leaf_size,
            bandwidth=resolved,
        )
        return self

    def _get_backend(self):
        """The fitted backend, rebuilt (cache-assisted) after deserialization."""
        backend = getattr(self, "_backend", None)
        if backend is None:
            backend = get_backend(
                self.algorithm_,
                self.training_data_,
                leaf_size=self.leaf_size,
                bandwidth=self.bandwidth_,
            )
            self._backend = backend
        return backend

    def load_state_dict(self, state):
        """Restore fitted state, validating the named backend exists."""
        algorithm = state.get("algorithm_")
        if algorithm is not None and algorithm not in BACKEND_NAMES:
            raise ValidationError(
                f"KernelDensity state names unknown density backend {algorithm!r}; "
                f"this build provides {BACKEND_NAMES}"
            )
        super().load_state_dict(state)
        self._backend = None  # rebuilt lazily via the backend cache
        return self

    # ------------------------------------------------------------------ score
    def score_samples(self, X) -> np.ndarray:
        """Return the log-density of each row of ``X`` under the fitted KDE.

        The whole batch is evaluated by the fitted backend in one vectorized
        pass; rows with zero density (outside every kernel's support) score
        ``-inf``.
        """
        self._check_fitted("training_data_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"X has {X.shape[1]} features, estimator was fitted with {self.n_features_}"
            )
        log_norm = log_normalization(self.kernel, self.bandwidth_, self.n_features_)
        n_train = self.training_data_.shape[0]
        # Queries are evaluated in the training sample's precision (the
        # float32 path would otherwise be silently promoted back to float64
        # inside the pairwise-distance matmul).
        X = X.astype(self.training_data_.dtype, copy=False)
        densities = self._get_backend().kernel_sums(X, self.kernel, self.bandwidth_)
        densities = np.asarray(densities, dtype=np.float64)
        with np.errstate(divide="ignore"):
            log_density = np.log(densities) - np.log(n_train) + log_norm
        return log_density

    def score(self, X) -> float:
        """Total log-likelihood of ``X`` under the fitted KDE."""
        return float(np.sum(self.score_samples(X)))

    def density_rank(self, X) -> np.ndarray:
        """Return ranks of rows by descending density (0 = densest row)."""
        log_density = self.score_samples(X)
        order = np.argsort(-log_density, kind="mergesort")
        ranks = np.empty_like(order)
        ranks[order] = np.arange(order.size)
        return ranks
