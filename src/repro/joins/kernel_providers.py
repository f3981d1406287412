"""Pluggable kernel providers for the join hot paths.

A :class:`KernelProvider` bundles the hot primitives every join touches —
the Algorithm 3 partition scan, aligned-pair / one-to-many / cross distance
evaluation, the k-best merge, and Morton encoding — so the implementation
can be swapped per run without touching algorithm code:

``numpy``
    Today's vectorized kernels, kept verbatim; the oracle every other
    provider is held bit-identical to.
``numba``
    JIT-compiled kernels (:mod:`repro.joins._numba_kernels`) that loop over
    candidates directly instead of materializing padded gather matrices.
    When numba is not installed the provider transparently falls back to
    numpy, counts the fallback, and warns once per process.
``auto``
    Per-call choice from batch shape: small batches stay on numpy (compiled
    call overhead dominates), large ones go compiled when numba is present
    (silently falling back otherwise — the fallback counter still records
    it).

Every provider preserves the bit-identity contract: identical neighbor ids
and distances, identical ``Metric.pairs_computed``, for every metric (the
generic Minkowski ``l<p>`` powers always delegate to numpy — their numpy
power evaluation is not exactly replicable in compiled code).

Providers are stateless and picklable by name: jobs ship the *name* in
their reducer cache and resolve it in ``setup()`` via
:func:`get_kernel_provider`.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.distance import Metric
from repro.core.geometry import PRUNE_EPS as _PRUNE_EPS
from repro.core.knn import KBestList
from repro.core.zorder import ZOrderTransform

from . import _numba_kernels as _nk
from .kernels import ScratchPool, SPartitionBlock, knn_join_kernel, scan_partition_numpy

__all__ = [
    "KernelProvider",
    "NumpyKernelProvider",
    "NumbaKernelProvider",
    "AutoKernelProvider",
    "CompiledKBestList",
    "ScratchPool",
    "KERNEL_PROVIDERS",
    "get_kernel_provider",
    "available_kernel_providers",
    "fallback_count",
    "reset_fallback_counts",
]


#: numpy fallbacks taken because numba is unavailable, per provider name
_FALLBACKS: dict[str, int] = {"numba": 0, "auto": 0}

_WARNED: set[str] = set()


def fallback_count(name: str) -> int:
    """How often the named provider fell back to numpy (numba missing)."""
    return _FALLBACKS.get(name, 0)


def reset_fallback_counts() -> None:
    """Zero the fallback counters (test isolation)."""
    for key in _FALLBACKS:
        _FALLBACKS[key] = 0
    _WARNED.clear()


def _record_fallback(name: str, warn: bool) -> None:
    _FALLBACKS[name] = _FALLBACKS.get(name, 0) + 1
    if warn and name not in _WARNED:
        _WARNED.add(name)
        warnings.warn(
            f"kernel provider {name!r} requested but numba is not installed; "
            "falling back to the numpy kernels (results are identical)",
            RuntimeWarning,
            stacklevel=3,
        )


class CompiledKBestList:
    """Interface-compatible :class:`~repro.core.knn.KBestList` over the
    compiled insertion kernel: a fixed ``(dist, id)``-sorted array pair,
    candidates folded in place — no concatenation, no re-sort."""

    __slots__ = ("k", "_dists", "_ids", "_seen")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._dists = np.full(k, np.inf, dtype=np.float64)
        self._ids = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
        self._seen = 0

    def update(self, dists: np.ndarray, ids: np.ndarray) -> None:
        """Offer a batch of candidates."""
        if dists.shape != ids.shape:
            raise ValueError("dists and ids must align")
        if dists.size == 0:
            return
        dists = np.ascontiguousarray(dists, dtype=np.float64)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        _nk.kbest_insert(self._dists, self._ids, self.k, dists, ids)
        self._seen = min(self.k, self._seen + dists.size)

    @property
    def theta(self) -> float:
        """Current kNN radius: the k-th best distance, ``+inf`` if unfilled."""
        if self._seen < self.k:
            return np.inf
        return float(self._dists[-1])

    def is_full(self) -> bool:
        """True once k candidates have been collected."""
        return self._seen >= self.k

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, dists)`` sorted ascending by (distance, id)."""
        return self._ids[: self._seen].copy(), self._dists[: self._seen].copy()


class KernelProvider:
    """The numpy provider — base class and oracle implementation.

    Subclasses override individual primitives; anything not overridden keeps
    the numpy behavior, so a partially-compiled provider stays correct.
    """

    name = "numpy"

    def available(self) -> bool:
        """Whether the provider's preferred backend can actually run."""
        return True

    def describe(self) -> str:
        """One-line availability note for ``--list-kernel-providers``."""
        return "vectorized numpy kernels (always available; the oracle)"

    # -- primitives --------------------------------------------------------

    def scan_partition(
        self,
        metric: Metric,
        k: int,
        r_points: np.ndarray,
        s_block: SPartitionBlock,
        rows: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        best_dists: np.ndarray,
        best_ids: np.ndarray,
        theta: np.ndarray,
        scratch: ScratchPool | None = None,
    ) -> None:
        """One scan step: admitted ring slices of ``s_block`` folded into the k-best."""
        scan_partition_numpy(
            metric, k, r_points, s_block, rows, starts, lengths,
            best_dists, best_ids, theta, scratch,
        )

    def pair_distances(self, metric: Metric, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-aligned distances (counted) — ``Metric.pair_distances``."""
        return metric.pair_distances(xs, ys)

    def distances(self, metric: Metric, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """One-to-many distances (counted) — ``Metric.distances``."""
        return metric.distances(a, bs)

    def cross_distances(self, metric: Metric, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Full distance matrix (counted) — ``Metric.cross_distances``."""
        return metric.cross_distances(xs, ys)

    def kbest(self, k: int):
        """A fresh k-best list."""
        return KBestList(k)

    def morton_codes(self, transform: ZOrderTransform, points: np.ndarray) -> np.ndarray:
        """Morton codes of ``points`` as a byte-key array —
        ``ZOrderTransform.z_keys``, the one implementation at every width."""
        return transform.z_keys(points)

    def knn_join_kernel(self, *args, **kwargs):
        """Algorithm 3's reduce phase using this provider's partition scan."""
        kwargs.setdefault("scan", self.scan_partition)
        return knn_join_kernel(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


NUMBA_HINT = "pip install numba"


class NumbaKernelProvider(KernelProvider):
    """JIT-compiled candidate-loop kernels; numpy fallback when numba is out.

    ``interpreted_ok`` lets the equivalence tests run the *algorithms*
    (plain-Python when numba is missing) without the library — production
    callers never set it.
    """

    name = "numba"

    def __init__(self, interpreted_ok: bool = False) -> None:
        self._interpreted_ok = interpreted_ok

    def available(self) -> bool:
        return _nk.NUMBA_AVAILABLE

    def describe(self) -> str:
        if self.available():
            return "JIT-compiled candidate-loop kernels (numba installed)"
        return f"numba not installed — numpy fallback active ({NUMBA_HINT})"

    def _compiled(self, warn: bool = True) -> bool:
        if _nk.NUMBA_AVAILABLE or self._interpreted_ok:
            return True
        _record_fallback(self.name, warn)
        return False

    def scan_partition(
        self, metric, k, r_points, s_block, rows, starts, lengths,
        best_dists, best_ids, theta, scratch=None,
    ) -> None:
        kernel = _nk.SCAN_KERNELS.get(metric.name)
        if kernel is None or not self._compiled():
            # generic Minkowski p (or no numba): the numpy scan is the
            # bit-identity reference for those powers anyway
            scan_partition_numpy(
                metric, k, r_points, s_block, rows, starts, lengths,
                best_dists, best_ids, theta, scratch,
            )
            return
        # every admitted pair's distance is evaluated by the kernel — the
        # count matches the gathered numpy scan pair for pair
        metric.pairs_computed += int(lengths.sum())
        kernel(
            k, r_points, s_block.points, s_block.ids, rows, starts,
            np.asarray(lengths, dtype=np.intp), best_dists, best_ids, theta,
            _PRUNE_EPS,
        )

    def pair_distances(self, metric, xs, ys):
        kernel = _nk.PAIR_KERNELS.get(metric.name)
        if kernel is None or not self._compiled():
            return metric.pair_distances(xs, ys)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 2:
            raise ValueError(
                f"expected two aligned 2-d point arrays, got {xs.shape} and {ys.shape}"
            )
        metric.pairs_computed += xs.shape[0]
        if xs.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        return kernel(xs, ys)

    def distances(self, metric, a, bs):
        kernel = _nk.ONE_TO_MANY_KERNELS.get(metric.name)
        if kernel is None or not self._compiled():
            return metric.distances(a, bs)
        bs = np.asarray(bs, dtype=np.float64)
        if bs.ndim != 2:
            raise ValueError(f"expected a 2-d array of points, got shape {bs.shape}")
        metric.pairs_computed += bs.shape[0]
        if bs.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        return kernel(np.asarray(a, dtype=np.float64), bs)

    def cross_distances(self, metric, xs, ys):
        kernel = _nk.ONE_TO_MANY_KERNELS.get(metric.name)
        if kernel is None or not self._compiled():
            return metric.cross_distances(xs, ys)
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        metric.pairs_computed += xs.shape[0] * ys.shape[0]
        out = np.empty((xs.shape[0], ys.shape[0]), dtype=np.float64)
        if ys.shape[0] == 0:
            return out
        for i in range(xs.shape[0]):
            out[i] = kernel(xs[i], ys)
        return out

    def kbest(self, k: int):
        if not self._compiled():
            return KBestList(k)
        return CompiledKBestList(k)


#: auto-provider thresholds: below these, compiled call overhead (boxing,
#: signature dispatch) beats the numpy kernel's fixed vectorization cost.
#: The wavefront kernel hands the scan one batch per step over all rows of a
#: reducer: about half of a PGBJ join's scanned pairs arrive in batches above
#: AUTO_SCAN_PAIRS, most scans (the late, heavily pruned steps) far below it.
AUTO_SCAN_PAIRS = 4096
AUTO_BATCH_ROWS = 2048


class AutoKernelProvider(KernelProvider):
    """Per-call provider choice from batch shape.

    Small batches keep the numpy kernels (their fixed cost is lower than a
    compiled call's dispatch overhead); large gathered scans and distance
    batches go compiled when numba is importable.  Without numba every
    choice lands on numpy — silently, but counted, so benchmarks can report
    that the compiled path never ran.
    """

    name = "auto"

    def __init__(self) -> None:
        self._numba = NumbaKernelProvider()
        # numba cannot appear mid-process: resolved here, not per scan
        self._native = self._numba.available()

    def available(self) -> bool:
        return True

    def describe(self) -> str:
        if self._native:
            return "shape-based choice: numpy for small batches, numba for large"
        return f"numba not installed — all calls stay on numpy ({NUMBA_HINT})"

    def _go_compiled(self, metric_name: str, size: int, threshold: int) -> bool:
        if size < threshold or metric_name not in _nk.SCAN_KERNELS:
            return False
        if not self._native:
            _record_fallback(self.name, warn=False)
        return self._native

    def scan_partition(
        self, metric, k, r_points, s_block, rows, starts, lengths,
        best_dists, best_ids, theta, scratch=None,
    ) -> None:
        if self._go_compiled(metric.name, int(lengths.sum()), AUTO_SCAN_PAIRS):
            self._numba.scan_partition(
                metric, k, r_points, s_block, rows, starts, lengths,
                best_dists, best_ids, theta, scratch,
            )
            return
        scan_partition_numpy(
            metric, k, r_points, s_block, rows, starts, lengths,
            best_dists, best_ids, theta, scratch,
        )

    def pair_distances(self, metric, xs, ys):
        if self._go_compiled(metric.name, int(np.asarray(xs).shape[0]), AUTO_BATCH_ROWS):
            return self._numba.pair_distances(metric, xs, ys)
        return metric.pair_distances(xs, ys)

    def distances(self, metric, a, bs):
        if self._go_compiled(metric.name, int(np.asarray(bs).shape[0]), AUTO_BATCH_ROWS):
            return self._numba.distances(metric, a, bs)
        return metric.distances(a, bs)

    def cross_distances(self, metric, xs, ys):
        xs_arr = np.atleast_2d(np.asarray(xs))
        ys_arr = np.atleast_2d(np.asarray(ys))
        if self._go_compiled(
            metric.name, xs_arr.shape[0] * ys_arr.shape[0], AUTO_SCAN_PAIRS
        ):
            return self._numba.cross_distances(metric, xs_arr, ys_arr)
        return metric.cross_distances(xs, ys)


#: name -> provider instance; the names are always valid choices — "numba"
#: without the library is a defined (fallback) configuration, not an error
KERNEL_PROVIDERS: dict[str, KernelProvider] = {
    "numpy": KernelProvider(),
    "numba": NumbaKernelProvider(),
    "auto": AutoKernelProvider(),
}

NumpyKernelProvider = KernelProvider


def get_kernel_provider(name: str = "auto") -> KernelProvider:
    """Resolve a provider by name (case-insensitive)."""
    try:
        return KERNEL_PROVIDERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown kernel provider {name!r}; "
            f"available: {', '.join(sorted(KERNEL_PROVIDERS))}"
        ) from None


def available_kernel_providers() -> dict[str, tuple[bool, str]]:
    """``name -> (backend available, description)`` for every provider."""
    return {
        name: (provider.available(), provider.describe())
        for name, provider in sorted(KERNEL_PROVIDERS.items())
    }
