"""Compiled (numba JIT) kernels for the join hot paths.

This module is import-safe without numba: when the library is missing the
``@njit`` decorator below degrades to the identity, leaving the kernels as
plain Python functions.  That keeps the *algorithms* testable everywhere
(the equivalence suites exercise them interpreted), while
:mod:`repro.joins.kernel_providers` only *selects* them for production use
when :data:`NUMBA_AVAILABLE` is true.

Bit-identity contract
---------------------
Every kernel replicates the numpy implementation it replaces operation for
IEEE operation:

* reductions replicate numpy's **pairwise summation** (``np.sum``): runs of
  fewer than 8 elements accumulate sequentially from 0.0, runs up to 128 use
  eight unrolled lanes combined as ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))``,
  longer runs split recursively at ``(n // 2) - (n // 2) % 8``  — the exact
  blocking of numpy's ``pairwise_sum`` for contiguous float64 data.  This is
  why :class:`~repro.core.distance.EuclideanMetric` reduces with ``np.sum``
  rather than BLAS dot products, whose accumulation order is SIMD-width
  dependent and not portable;
* only the metrics whose numpy form is exactly replicable are compiled: L1
  (absolute differences), L2 (squares then ``sqrt``) and L-inf (a running
  maximum, order independent).  The generic Minkowski ``l<p>`` power is
  *not* compiled — ``x ** p`` disagrees with ``math.pow`` by 1 ulp for some
  inputs — so providers fall back to numpy for it;
* the k-best fold inserts candidates one at a time into a ``(dist, id)``
  sorted list, admitting a candidate exactly when it is lexicographically
  smaller than the current k-th entry (equal entries keep their place —
  first-come stability, matching the stable lexsorts of the numpy merge).
"""

from __future__ import annotations

import math

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the identity path is the tested one
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """Identity decorator standing in for ``numba.njit``."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


__all__ = [
    "NUMBA_AVAILABLE",
    "SCAN_KERNELS",
    "PAIR_KERNELS",
    "ONE_TO_MANY_KERNELS",
    "kbest_insert",
    "warm_up",
]


@njit(cache=True)
def _pairwise_sum(values, lo, n):
    """numpy's pairwise summation of ``values[lo : lo + n]``, bit for bit."""
    if n < 8:
        acc = 0.0
        for i in range(n):
            acc += values[lo + i]
        return acc
    if n <= 128:
        r0 = values[lo]
        r1 = values[lo + 1]
        r2 = values[lo + 2]
        r3 = values[lo + 3]
        r4 = values[lo + 4]
        r5 = values[lo + 5]
        r6 = values[lo + 6]
        r7 = values[lo + 7]
        i = 8
        while i < n - (n % 8):
            r0 += values[lo + i]
            r1 += values[lo + i + 1]
            r2 += values[lo + i + 2]
            r3 += values[lo + i + 3]
            r4 += values[lo + i + 4]
            r5 += values[lo + i + 5]
            r6 += values[lo + i + 6]
            r7 += values[lo + i + 7]
            i += 8
        acc = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            acc += values[lo + i]
            i += 1
        return acc
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


# -- per-metric distance scans ------------------------------------------------
#
# One kernel per compiled metric: the (diff -> reduce) inner loops differ,
# and keeping them monomorphic lets numba emit straight-line code.  The scan
# body (candidate walk + sorted k-best insertion + theta tightening) is
# duplicated rather than dispatched through a function value, which numba
# cannot devirtualize.


@njit(cache=True)
def scan_pairs_l2(k, r_points, s_points, s_ids, rows, starts, lengths,
                  best_dists, best_ids, theta, eps):
    dims = r_points.shape[1]
    work = np.empty(dims, dtype=np.float64)
    for i in range(rows.shape[0]):
        row = rows[i]
        bd = best_dists[row]
        bi = best_ids[row]
        stop = starts[i] + lengths[i]
        for j in range(starts[i], stop):
            for c in range(dims):
                diff = s_points[j, c] - r_points[row, c]
                work[c] = diff * diff
            dist = math.sqrt(_pairwise_sum(work, 0, dims))
            tail = k - 1
            if dist < bd[tail] or (dist == bd[tail] and s_ids[j] < bi[tail]):
                pos = tail
                while pos > 0 and (
                    bd[pos - 1] > dist
                    or (bd[pos - 1] == dist and bi[pos - 1] > s_ids[j])
                ):
                    bd[pos] = bd[pos - 1]
                    bi[pos] = bi[pos - 1]
                    pos -= 1
                bd[pos] = dist
                bi[pos] = s_ids[j]
        bound = bd[k - 1] + eps
        if bound < theta[row]:
            theta[row] = bound


@njit(cache=True)
def scan_pairs_l1(k, r_points, s_points, s_ids, rows, starts, lengths,
                  best_dists, best_ids, theta, eps):
    dims = r_points.shape[1]
    work = np.empty(dims, dtype=np.float64)
    for i in range(rows.shape[0]):
        row = rows[i]
        bd = best_dists[row]
        bi = best_ids[row]
        stop = starts[i] + lengths[i]
        for j in range(starts[i], stop):
            for c in range(dims):
                work[c] = abs(s_points[j, c] - r_points[row, c])
            dist = _pairwise_sum(work, 0, dims)
            tail = k - 1
            if dist < bd[tail] or (dist == bd[tail] and s_ids[j] < bi[tail]):
                pos = tail
                while pos > 0 and (
                    bd[pos - 1] > dist
                    or (bd[pos - 1] == dist and bi[pos - 1] > s_ids[j])
                ):
                    bd[pos] = bd[pos - 1]
                    bi[pos] = bi[pos - 1]
                    pos -= 1
                bd[pos] = dist
                bi[pos] = s_ids[j]
        bound = bd[k - 1] + eps
        if bound < theta[row]:
            theta[row] = bound


@njit(cache=True)
def scan_pairs_linf(k, r_points, s_points, s_ids, rows, starts, lengths,
                    best_dists, best_ids, theta, eps):
    dims = r_points.shape[1]
    for i in range(rows.shape[0]):
        row = rows[i]
        bd = best_dists[row]
        bi = best_ids[row]
        stop = starts[i] + lengths[i]
        for j in range(starts[i], stop):
            dist = 0.0
            for c in range(dims):
                diff = abs(s_points[j, c] - r_points[row, c])
                if diff > dist:
                    dist = diff
            tail = k - 1
            if dist < bd[tail] or (dist == bd[tail] and s_ids[j] < bi[tail]):
                pos = tail
                while pos > 0 and (
                    bd[pos - 1] > dist
                    or (bd[pos - 1] == dist and bi[pos - 1] > s_ids[j])
                ):
                    bd[pos] = bd[pos - 1]
                    bi[pos] = bi[pos - 1]
                    pos -= 1
                bd[pos] = dist
                bi[pos] = s_ids[j]
        bound = bd[k - 1] + eps
        if bound < theta[row]:
            theta[row] = bound


# -- flat aligned-pair distances (Metric.pair_distances) ----------------------


@njit(cache=True)
def pair_dists_l2(xs, ys):
    m, dims = xs.shape
    out = np.empty(m, dtype=np.float64)
    work = np.empty(dims, dtype=np.float64)
    for i in range(m):
        for c in range(dims):
            diff = ys[i, c] - xs[i, c]
            work[c] = diff * diff
        out[i] = math.sqrt(_pairwise_sum(work, 0, dims))
    return out


@njit(cache=True)
def pair_dists_l1(xs, ys):
    m, dims = xs.shape
    out = np.empty(m, dtype=np.float64)
    work = np.empty(dims, dtype=np.float64)
    for i in range(m):
        for c in range(dims):
            work[c] = abs(ys[i, c] - xs[i, c])
        out[i] = _pairwise_sum(work, 0, dims)
    return out


@njit(cache=True)
def pair_dists_linf(xs, ys):
    m, dims = xs.shape
    out = np.empty(m, dtype=np.float64)
    for i in range(m):
        dist = 0.0
        for c in range(dims):
            diff = abs(ys[i, c] - xs[i, c])
            if diff > dist:
                dist = diff
        out[i] = dist
    return out


# -- one-to-many distances (Metric.distances / cross_distances rows) ----------


@njit(cache=True)
def one_to_many_l2(a, bs):
    n, dims = bs.shape
    out = np.empty(n, dtype=np.float64)
    work = np.empty(dims, dtype=np.float64)
    for i in range(n):
        for c in range(dims):
            diff = bs[i, c] - a[c]
            work[c] = diff * diff
        out[i] = math.sqrt(_pairwise_sum(work, 0, dims))
    return out


@njit(cache=True)
def one_to_many_l1(a, bs):
    n, dims = bs.shape
    out = np.empty(n, dtype=np.float64)
    work = np.empty(dims, dtype=np.float64)
    for i in range(n):
        for c in range(dims):
            work[c] = abs(bs[i, c] - a[c])
        out[i] = _pairwise_sum(work, 0, dims)
    return out


@njit(cache=True)
def one_to_many_linf(a, bs):
    n, dims = bs.shape
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        dist = 0.0
        for c in range(dims):
            diff = abs(bs[i, c] - a[c])
            if diff > dist:
                dist = diff
        out[i] = dist
    return out


# -- k-best list merge --------------------------------------------------------


@njit(cache=True)
def kbest_insert(best_dists, best_ids, k, dists, ids):
    """Fold ``(dists, ids)`` into a ``(dist, id)``-sorted k-best pair of
    arrays (``inf`` / sentinel padded), preserving first-come stability —
    exactly the k smallest entries, as ``KBestList``'s lexsort would keep.
    """
    tail = k - 1
    for j in range(dists.shape[0]):
        dist = dists[j]
        oid = ids[j]
        if dist < best_dists[tail] or (dist == best_dists[tail] and oid < best_ids[tail]):
            pos = tail
            while pos > 0 and (
                best_dists[pos - 1] > dist
                or (best_dists[pos - 1] == dist and best_ids[pos - 1] > oid)
            ):
                best_dists[pos] = best_dists[pos - 1]
                best_ids[pos] = best_ids[pos - 1]
                pos -= 1
            best_dists[pos] = dist
            best_ids[pos] = oid


SCAN_KERNELS = {"l2": scan_pairs_l2, "l1": scan_pairs_l1, "linf": scan_pairs_linf}
PAIR_KERNELS = {"l2": pair_dists_l2, "l1": pair_dists_l1, "linf": pair_dists_linf}
ONE_TO_MANY_KERNELS = {
    "l2": one_to_many_l2,
    "l1": one_to_many_l1,
    "linf": one_to_many_linf,
}


def warm_up() -> None:
    """Force-compile every kernel on tiny inputs (useful before timing)."""
    points = np.zeros((2, 3), dtype=np.float64)
    ids = np.arange(2, dtype=np.int64)
    rows = np.zeros(1, dtype=np.intp)
    starts = np.zeros(1, dtype=np.intp)
    lengths = np.ones(1, dtype=np.intp)
    for scan in SCAN_KERNELS.values():
        best_d = np.full((2, 2), np.inf, dtype=np.float64)
        best_i = np.full((2, 2), np.iinfo(np.int64).max, dtype=np.int64)
        theta = np.full(2, np.inf, dtype=np.float64)
        scan(2, points, points, ids, rows, starts, lengths, best_d, best_i, theta, 1e-9)
    for pair in PAIR_KERNELS.values():
        pair(points, points)
    for one in ONE_TO_MANY_KERNELS.values():
        one(points[0], points)
    best_d = np.full(2, np.inf, dtype=np.float64)
    best_i = np.full(2, np.iinfo(np.int64).max, dtype=np.int64)
    kbest_insert(best_d, best_i, 2, np.zeros(1, dtype=np.float64), ids[:1])
