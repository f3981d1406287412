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

Every batch kernel is *dimension-major*: the per-coordinate terms of a whole
batch are computed at once and added coordinate by coordinate by
:func:`_column_fold`, in exactly the order numpy's pairwise summation adds one
row.  A distance has the same bytes whichever entry point, batch shape or
memory layout produced it (the scalar :meth:`Metric._pair` is the oracle), and
no per-row reduce over 2 or 10 elements is ever issued.
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


#: bytes of one per-coordinate term matrix of a :meth:`Metric._cross` row
#: chunk — amortises the numpy calls yet stays cache resident (measured best
#: at 2 and at 10 dimensions)
_CROSS_BYTES = 1 << 16


def _column_fold(terms: np.ndarray, add=np.add) -> np.ndarray:
    """Combine ``terms[0] .. terms[d - 1]`` in numpy's pairwise-sum order.

    ``np.sum`` adds a contiguous row of fewer than 8 values left to right.
    Up to 128 values it runs eight lanes (lane ``j`` accumulates columns
    ``j, j + 8, j + 16, ...`` up to the last multiple of 8), joins them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the ``d % 8`` tail
    left to right.  A longer row is split at ``d // 2 - (d // 2) % 8`` and
    the two halves' sums are added.  Each operand here is a whole array of
    per-coordinate terms, so every element of the result is that row sum,
    bit for bit.  ``terms`` is only read.
    """
    d = len(terms)
    if d > 128:
        half = d // 2 - (d // 2) % 8
        return add(_column_fold(terms[:half], add), _column_fold(terms[half:], add))
    if d < 8:
        if d == 0:
            return np.zeros(terms.shape[1:])
        acc, tail = terms[0], terms[1:]
    else:
        lanes = list(terms[:8])
        for c in range(8, d - d % 8):
            lanes[c % 8] = add(lanes[c % 8], terms[c])
        r0, r1, r2, r3, r4, r5, r6, r7 = lanes
        acc = add(add(add(r0, r1), add(r2, r3)), add(add(r4, r5), add(r6, r7)))
        tail = terms[d - d % 8 :]
    for term in tail:
        acc = add(acc, term)
    return acc


class Metric(ABC):
    """A distance function over row vectors, with pair accounting.

    Subclasses supply raw kernels only: the scalar :meth:`_pair`, and
    :meth:`_terms` / :meth:`_finish` / :attr:`_add`, from which the batch
    kernels :meth:`_one_to_many`, :meth:`_pairwise` and :meth:`_cross` are
    built.  The public entry points update :attr:`pairs_computed`, which
    backs the paper's computation-selectivity metric.
    """

    #: short identifier used by :func:`get_metric` and in reports
    name: str = "abstract"

    #: how per-coordinate terms combine (``np.maximum`` for L-infinity)
    _add = staticmethod(np.add)

    def __init__(self) -> None:
        self.pairs_computed: int = 0

    # -- raw kernels -------------------------------------------------------

    @abstractmethod
    def _pair(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two single points (1-d arrays)."""

    def _terms(self, diff: np.ndarray) -> np.ndarray:
        """Per-coordinate terms of the differences ``diff``, in place."""
        return np.abs(diff, out=diff)

    def _finish(self, total: np.ndarray) -> np.ndarray:
        """Distances from the combined per-coordinate terms."""
        return total

    def _fold(self, xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Distances between *dimension-first*, broadcast-aligned point views."""
        return self._finish(_column_fold(self._terms(np.subtract(ys, xs, out=out)), self._add))

    def _one_to_many(self, a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Distances from point ``a`` (1-d) to each row of ``bs`` (2-d)."""
        return self._fold(a[:, None], bs.T)

    def _pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-aligned distances ``|xs[i], ys[i]|`` (both 2-d, same shape)."""
        return self._fold(xs.T, ys.T)

    def _cross(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The ``|xs| x |ys|`` matrix by row chunks: a chunk's differences live
        in one reused ``(d, rows, |ys|)`` buffer, every term matrix contiguous."""
        out = np.empty((xs.shape[0], ys.shape[0]), dtype=np.float64)
        rows = max(1, _CROSS_BYTES // (8 * max(1, ys.shape[0])))
        work = np.empty((xs.shape[1], min(rows, xs.shape[0]), ys.shape[0]), dtype=np.float64)
        for lo in range(0, xs.shape[0], rows):
            chunk = xs[lo : lo + rows].T[:, :, None]
            out[lo : lo + rows] = self._fold(chunk, ys.T[:, None, :], work[:, : chunk.shape[1]])
        return out

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
        return self._pairwise(xs, ys)

    def cross_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Return the full ``|xs| x |ys|`` distance matrix (counted)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        self.pairs_computed += xs.shape[0] * ys.shape[0]
        return self._cross(xs, ys)

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
        # the root goes through the array power like the batch kernels' does:
        # numpy's scalar and array ``**`` differ in the last bit on some CPUs
        return float(np.asarray(np.sum(np.abs(a - b) ** self.p)) ** (1.0 / self.p))

    def _terms(self, diff: np.ndarray) -> np.ndarray:
        diff = super()._terms(diff)
        diff **= self.p
        return diff

    def _finish(self, total: np.ndarray) -> np.ndarray:
        return total ** (1.0 / self.p)


class EuclideanMetric(Metric):
    """L2 distance (Equation 1) — the paper's default measure."""

    name = "l2"

    # The squared differences are reduced in the order of numpy's pairwise
    # summation (``np.sum``) rather than ``np.dot``/``np.einsum``: BLAS-style
    # accumulation depends on the SIMD width of the host, while the pairwise
    # tree is a fixed IEEE operation order, so the batch kernels and the
    # scalar path agree bit for bit.

    def _pair(self, a: np.ndarray, b: np.ndarray) -> float:
        diff = a - b
        return math.sqrt(float(np.sum(diff * diff)))

    def _terms(self, diff: np.ndarray) -> np.ndarray:
        return np.multiply(diff, diff, out=diff)

    def _finish(self, total: np.ndarray) -> np.ndarray:
        return np.sqrt(total)


class ManhattanMetric(Metric):
    """L1 (Manhattan) distance."""

    name = "l1"

    def _pair(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.abs(a - b).sum())


class ChebyshevMetric(Metric):
    """L-infinity (maximum) distance."""

    name = "linf"

    _add = staticmethod(np.maximum)

    def _pair(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.abs(a - b).max())


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
