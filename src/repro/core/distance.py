"""Distance metrics for the metric space :math:`D`.

The paper (Section 2.1) defines the kNN join over an ``n``-dimensional metric
space and uses the Euclidean distance (L2) throughout, noting that the methods
apply unchanged to other metrics such as Manhattan (L1) and maximum (L-inf).
All pruning rules in the paper (Theorems 1-5) rely only on the triangle
inequality, so any :class:`Metric` implementation here is usable.

A central experimental measure in Section 6 is *computation selectivity*::

    (# of object pairs whose distance is computed) / (|R| * |S|)

"where the objects also include the pivots in our case".  To reproduce that
measurement faithfully every distance evaluation in the library flows through
a :class:`Metric`, which counts the number of *pairs* evaluated (a vectorised
call computing ``m`` distances counts ``m`` pairs).
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "get_metric",
]


class Metric(ABC):
    """A distance function over row vectors, with pair accounting.

    Subclasses implement the raw kernels :meth:`_pair` and :meth:`_one_to_many`;
    the public entry points update :attr:`pairs_computed` which backs the
    paper's computation-selectivity metric.
    """

    #: short identifier used by :func:`get_metric` and in reports
    name: str = "abstract"

    def __init__(self) -> None:
        self.pairs_computed: int = 0

    # -- raw kernels -------------------------------------------------------

    @abstractmethod
    def _pair(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two single points (1-d arrays)."""

    @abstractmethod
    def _one_to_many(self, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Distances from point ``a`` (1-d) to each row of ``bs`` (2-d)."""

    def _pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-aligned distances ``|xs[i], ys[i]|`` (both 2-d, same shape).

        Subclasses override with a vectorized kernel that matches
        :meth:`_one_to_many` element for element (same IEEE operations), so
        gather-based batch scans are bit-identical to per-query scans.
        """
        return np.fromiter(
            (self._pair(x, y) for x, y in zip(xs, ys)),
            dtype=np.float64,
            count=xs.shape[0],
        )

    # -- public, counted entry points --------------------------------------

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Return ``|a, b|`` and account for one computed pair."""
        self.pairs_computed += 1
        return self._pair(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))

    def distances(self, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Return distances from ``a`` to every row of ``bs`` (counted)."""
        bs = np.asarray(bs, dtype=np.float64)
        if bs.ndim != 2:
            raise ValueError(f"expected a 2-d array of points, got shape {bs.shape}")
        self.pairs_computed += bs.shape[0]
        if bs.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        return self._one_to_many(np.asarray(a, dtype=np.float64), bs)

    def pair_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-aligned distances ``|xs[i], ys[i]|`` (counted).

        The entry point of the gathered (flat pair list) kernel scans: both
        arguments are ``(m, d)`` with rows already paired up.  Counts ``m``
        pairs — exactly the pairs a per-query scan over the same slices
        would have counted.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 2:
            raise ValueError(
                f"expected two aligned 2-d point arrays, got {xs.shape} and {ys.shape}"
            )
        self.pairs_computed += xs.shape[0]
        if xs.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        return self._pairwise(xs, ys)

    def cross_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Return the full ``|xs| x |ys|`` distance matrix (counted).

        One :meth:`_one_to_many` call per point of the *shorter* side: every
        kernel reduces ``|a - b|`` or ``(a - b)^2``, which are sign-symmetric
        in IEEE arithmetic, so a column filled from ``ys[j]`` holds the same
        bytes as the rows would.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        self.pairs_computed += xs.shape[0] * ys.shape[0]
        out = np.empty((xs.shape[0], ys.shape[0]), dtype=np.float64)
        if xs.shape[0] > ys.shape[0]:
            for j in range(ys.shape[0]):
                out[:, j] = self._one_to_many(ys[j], xs)
        else:
            for i in range(xs.shape[0]):
                out[i] = self._one_to_many(xs[i], ys)
        return out

    def pairwise_sum(self, xs: np.ndarray) -> float:
        """Total distance over all unordered pairs of rows of ``xs`` (counted).

        Used by random pivot selection, which scores candidate pivot sets by
        "the total sum of the distances between every two objects".
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        total = 0.0
        for i in range(xs.shape[0] - 1):
            rest = xs[i + 1 :]
            self.pairs_computed += rest.shape[0]
            total += float(self._one_to_many(xs[i], rest).sum())
        return total

    # -- uncounted entry points ---------------------------------------------
    #
    # Index structures compute distances to geometric artifacts (bounding
    # rectangles, hyperplanes) that are not data objects; the paper's
    # selectivity counts *object pairs* only, so these variants bypass the
    # counter.  Use them only for non-object geometry.

    def uncounted_distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """``|a, b|`` without touching the pair counter."""
        return self._pair(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))

    def uncounted_distances(self, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Distances from ``a`` to rows of ``bs`` without counting."""
        bs = np.asarray(bs, dtype=np.float64)
        if bs.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        return self._one_to_many(np.asarray(a, dtype=np.float64), bs)

    def reset_counter(self) -> None:
        """Zero the computed-pair counter."""
        self.pairs_computed = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class MinkowskiMetric(Metric):
    """The L_p family; concrete subclasses pin ``p`` for speed and clarity."""

    def __init__(self, p: float) -> None:
        super().__init__()
        if p < 1:
            raise ValueError(f"p must be >= 1 for a metric, got {p}")
        self.p = float(p)
        self.name = f"l{p:g}"

    def _pair(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(np.abs(a - b) ** self.p) ** (1.0 / self.p))

    def _one_to_many(self, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(bs - a) ** self.p, axis=1) ** (1.0 / self.p)

    def _pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(ys - xs) ** self.p, axis=1) ** (1.0 / self.p)


class EuclideanMetric(Metric):
    """L2 distance (Equation 1) — the paper's default measure."""

    name = "l2"

    # All three kernels reduce the squared differences with numpy's pairwise
    # summation (``np.sum``) rather than ``np.dot``/``np.einsum``: BLAS-style
    # accumulation depends on the SIMD width of the host, while the pairwise
    # tree is a fixed IEEE operation order that compiled kernel providers
    # replicate exactly, keeping results bit-identical across providers.

    def _pair(self, a: np.ndarray, b: np.ndarray) -> float:
        diff = a - b
        return math.sqrt(float(np.sum(diff * diff)))

    def _one_to_many(self, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        diff = bs - a
        return np.sqrt(np.sum(diff * diff, axis=1))

    def _pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        diff = ys - xs
        return np.sqrt(np.sum(diff * diff, axis=1))


class ManhattanMetric(Metric):
    """L1 (Manhattan) distance."""

    name = "l1"

    def _pair(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.abs(a - b).sum())

    def _one_to_many(self, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        return np.abs(bs - a).sum(axis=1)

    def _pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.abs(ys - xs).sum(axis=1)


class ChebyshevMetric(Metric):
    """L-infinity (maximum) distance."""

    name = "linf"

    def _pair(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.abs(a - b).max())

    def _one_to_many(self, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        return np.abs(bs - a).max(axis=1)

    def _pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.abs(ys - xs).max(axis=1)


_METRICS = {
    "l2": EuclideanMetric,
    "euclidean": EuclideanMetric,
    "l1": ManhattanMetric,
    "manhattan": ManhattanMetric,
    "linf": ChebyshevMetric,
    "chebyshev": ChebyshevMetric,
    "maximum": ChebyshevMetric,
}


#: the whole Minkowski family: "l<p>" with a numeric p, e.g. "l3" or "l2.5"
_LP_NAME = re.compile(r"^l(\d+(?:\.\d+)?)$")


def get_metric(name: str = "l2") -> Metric:
    """Instantiate a fresh (zero-counter) metric by name.

    Besides the named metrics, any ``"l<p>"`` with numeric ``p >= 1``
    resolves to the matching :class:`MinkowskiMetric` (``"l3"``, ``"l2.5"``,
    ...); the specialized L1/L2 kernels keep priority for their names.
    ``metric.name`` round-trips: ``get_metric(get_metric("l3").name)`` works.

    >>> get_metric("l1").name
    'l1'
    >>> get_metric("l3").name
    'l3'
    """
    key = name.lower()
    cls = _METRICS.get(key)
    if cls is not None:
        return cls()
    match = _LP_NAME.match(key)
    if match:
        return MinkowskiMetric(float(match.group(1)))
    raise ValueError(
        f"unknown metric {name!r}; available: {sorted(set(_METRICS))} "
        "or any Minkowski 'l<p>' with p >= 1 (e.g. 'l3')"
    )
