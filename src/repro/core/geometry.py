"""Hyperplane and ring pruning rules (paper Theorems 1-2, Corollary 1).

These are the two in-reducer filters used while scanning candidate
S-partitions for one query object (Algorithm 3, lines 19-22):

* **Theorem 1 / Corollary 1** — generalized-hyperplane pruning.  For pivots
  ``p_i`` and ``p_j``, every object of cell ``P_j`` is at least
  ``d(q, HP(p_i, p_j))`` away from a query ``q`` in cell ``P_i``; when that
  distance exceeds the current kNN radius ``theta``, the whole cell is skipped.
* **Theorem 2** — metric ring pruning.  Within a surviving cell only objects
  whose pivot distance lies in the ring
  ``[max(L, |p_j, q| - theta), min(U, |p_j, q| + theta)]`` can be within
  ``theta`` of ``q``; with pivot distances sorted, the ring is a contiguous
  slice found by binary search.

A tiny absolute slack ``PRUNE_EPS`` is applied wherever a floating-point
comparison could otherwise prune an exact boundary case; the rules are
necessary conditions, so slack only weakens pruning, never correctness.
The Euclidean hyperplane distance also gives up ``PRUNE_RTOL`` of ``(|q,
p_i|² + |q, p_j|²) / 2|p_i, p_j|``, since the rounding of computed distances
grows with the coordinate scale — its difference of squares cancels, and
the cancelled rounding is divided by the pivots' gap, which a dense cluster
makes tiny next to a far query.  The Theorem 2 ring gives up
``PRUNE_RTOL`` of ``|q, p_j| + theta`` at each end.

Anchor codes carry an object's distance ``|o, a|`` to an anchor pivot ``a``
in one byte: the triangle inequality puts it in ``[| |p, a| - |o, p| |, |p,
a| + |o, p|]`` around the object's own pivot ``p``, and the code names one of
256 equal steps of that interval.  Coding and decoding read only ``|o, p|``
and the pivot matrix, so no distance is computed at either end.  A cell's
decoded ranges around an anchor bound ``|r, s|`` for all of its members at
once (:func:`anchor_ranges`, :func:`anchor_reach`, :func:`anchor_range_gaps`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PRUNE_EPS",
    "PRUNE_RTOL",
    "anchor_codes",
    "anchor_intervals",
    "anchor_range_gaps",
    "anchor_ranges",
    "anchor_reach",
    "hyperplane_distance",
    "hyperplane_distances",
    "partition_pruned_by_hyperplane",
    "pivot_distance_needed",
    "ring_bounds",
    "ring_slice",
    "ring_slices",
    "segment_keys",
]

#: absolute slack for floating-point-safe pruning comparisons
PRUNE_EPS = 1e-9
#: relative slack beside ``PRUNE_EPS`` for bounds made of computed distances:
#: their rounding, and a tie tolerance, at any coordinate scale
PRUNE_RTOL = 1e-9


def _code_steps(pids, own_dists, code_rows):
    """``(lo, step, hi)``, ``(C, n)``: per code anchor and object the
    triangle interval of ``|o, a|`` from ``|o, p|`` (``own_dists``) and ``|p,
    a|`` (column ``pids`` of ``code_rows``, the code anchors' rows of the
    pivot matrix), and its 256th part."""
    gaps = code_rows[:, pids]
    lo, hi = np.abs(gaps - own_dists), gaps + own_dists
    return lo, (hi - lo) / 256, hi


def anchor_codes(anchor_dists, pids, own_dists, code_rows):
    """``(n, C)`` ``uint8``: per object and code anchor the step of its
    triangle interval that holds ``|o, a|`` (``anchor_dists``, an object per
    row and a code anchor per column), ends clipped.  A zero-width interval
    codes as 0."""
    lo, step, _ = _code_steps(pids, own_dists, code_rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        codes = np.floor((anchor_dists.T - lo) / step)
    return np.clip(np.nan_to_num(codes.T, nan=0.0), 0, 255).astype(np.uint8, order="C")


def anchor_intervals(codes, pids, own_dists, code_rows):
    """``(mids, radius)``: the middle of each code's step, ``(C, n)``, and per
    object one radius covering every step's half width, the rounding of the
    distances the interval is made of (``PRUNE_RTOL`` of its widest end) and
    ``PRUNE_EPS`` — ``|o, a|`` lies within ``radius`` of its mid.  The mids
    are C-ordered: a gather of a few objects' columns (``take(cols, 1)``)
    then reads those columns only, where an F-ordered source is first copied
    whole."""
    lo, step, hi = _code_steps(pids, own_dists, code_rows)
    mids = np.multiply(codes.T + 0.5, step, order="C")
    mids += lo
    return mids, step.max(axis=0) / 2 + PRUNE_RTOL * hi.max(axis=0) + PRUNE_EPS


def anchor_ranges(mids, radius, offsets):
    """``(lo, hi)``, ``(C, cells)``: per code anchor the hull of the ranges
    ``[mid - radius, mid + radius]`` that hold ``|o, a|``
    (:func:`anchor_intervals`) of each cell's objects, ``[offsets[c],
    offsets[c + 1])`` (none empty), each end moved out by ``PRUNE_RTOL`` of
    the larger one.  That slack, and the row's in :func:`anchor_range_gaps`,
    cover the rounding of sums taken in another order than the per-pair
    filter's ``|mid_r - mid_s| > theta + radius_r + radius_s``: a (row, cell)
    gap above theta fails that filter for every member."""
    lo = np.minimum.reduceat(mids - radius, offsets[:-1], axis=1)
    hi = np.maximum.reduceat(mids + radius, offsets[:-1], axis=1)
    slack = PRUNE_RTOL * np.maximum(np.abs(lo), np.abs(hi))
    return lo - slack, hi + slack


def anchor_reach(mids, radius):
    """Per row the radius :func:`anchor_range_gaps` takes off its gaps: the
    row's ``radius`` (:func:`anchor_intervals`) and ``PRUNE_RTOL`` of its
    largest end.  Computed once per block of rows, not per pair."""
    return radius + PRUNE_RTOL * (mids.max(axis=0) + radius)


def anchor_range_gaps(r_mids, r_reach, rows, lo, hi, cells):
    """Per pair ``(rows[i], cells[i])`` a lower bound on ``|r, s|`` for every
    member ``s`` of the cell: ``max_a max(mid_r - hi, lo - mid_r) - reach_r``
    over the code anchors, the row's decoded codes (``rows`` index the
    columns of :func:`anchor_intervals`' arrays and :func:`anchor_reach`'s)
    against the cell's ranges (``cells`` index :func:`anchor_ranges`'
    columns).  An anchor at a time, into reused buffers: memory per pair,
    not per pair and anchor."""
    gaps = np.full(rows.shape, -np.inf)
    mid, end, gap = np.empty(rows.shape), np.empty(rows.shape), np.empty(rows.shape)
    for mids_a, lo_a, hi_a in zip(r_mids, lo, hi):
        mids_a.take(rows, out=mid)
        np.maximum(gaps, np.subtract(mid, hi_a.take(cells, out=end), out=gap), out=gaps)
        np.maximum(gaps, np.subtract(lo_a.take(cells, out=end), mid, out=gap), out=gaps)
    return np.subtract(gaps, r_reach.take(rows, out=end), out=gaps)


def hyperplane_distance(
    dist_q_pi: float, dist_q_pj: float, dist_pi_pj: float, euclidean: bool = True
) -> float:
    """Lower bound on the distance from ``q`` (cell ``P_i``) to cell ``P_j``.

    For Euclidean space this is the exact distance to the generalized
    hyperplane ``HP(p_i, p_j)`` (Theorem 1 / Equation 3), expressed purely in
    already-known distances.  For other metrics Equation 3 does not hold, so
    the metric-space GH bound ``(|q, p_j| - |q, p_i|) / 2`` (Uhlmann's
    generalized-hyperplane pruning, valid by the triangle inequality alone)
    is used instead — looser, but correct.  Positive when ``q`` is on
    ``p_i``'s side, lowered by its rounding slack (module docstring).
    """
    if not euclidean:
        return max(0.0, (dist_q_pj - dist_q_pi) / 2.0)
    if dist_pi_pj <= 0.0:
        # coincident pivots: the hyperplane is undefined; nothing can be
        # pruned, report distance 0 (never exceeds any non-negative theta).
        return 0.0
    a2, b2 = dist_q_pi * dist_q_pi, dist_q_pj * dist_q_pj
    return (b2 - a2 - PRUNE_RTOL * (b2 + a2)) / (2.0 * dist_pi_pj)


def hyperplane_distances(
    dist_q_pi: np.ndarray,
    dist_q_pj: np.ndarray,
    dist_pi_pj: "float | np.ndarray",
    euclidean: bool = True,
) -> np.ndarray:
    """Vectorized :func:`hyperplane_distance` for many queries.

    ``dist_q_pi``/``dist_q_pj`` are aligned per-query arrays; ``dist_pi_pj``
    is the pivot-pair distance — one shared scalar, or one value per query
    when the queries come from different cells.  Elementwise IEEE operations
    match the scalar version exactly, so batched pruning decisions are
    bit-identical.
    """
    if not euclidean:
        return np.maximum(0.0, (dist_q_pj - dist_q_pi) / 2.0)
    coincident = np.asarray(dist_pi_pj) <= 0.0
    # a coincident pair divides by a placeholder and then reports gap 0
    denominator = 2.0 * np.where(coincident, 1.0, dist_pi_pj)
    a2, b2 = dist_q_pi * dist_q_pi, dist_q_pj * dist_q_pj
    gaps = (b2 - a2 - PRUNE_RTOL * (b2 + a2)) / denominator
    return np.where(coincident, 0.0, gaps)


def partition_pruned_by_hyperplane(
    dist_q_pi: float,
    dist_q_pj: float,
    dist_pi_pj: float,
    theta: float,
    euclidean: bool = True,
) -> bool:
    """Corollary 1: may cell ``P_j`` be skipped entirely for query ``q``?

    True when every object of ``P_j`` is provably farther than ``theta``.
    """
    return (
        hyperplane_distance(dist_q_pi, dist_q_pj, dist_pi_pj, euclidean)
        > theta + PRUNE_EPS
    )


def pivot_distance_needed(
    dist_q_pi, dist_pi_pj, upper_pj, theta, hyperplane: bool = True, ring: bool = True
):
    """Must ``|q, p_j|`` be computed before cell ``P_j`` can be judged for ``q``?

    False where both rules, at the own pivot's lower bound ``|p_i, p_j| - |q,
    p_i|`` on ``|q, p_j|``, already exceed ``theta + PRUNE_EPS``: Corollary 1,
    which then reads ``|p_i, p_j| / 2 - |q, p_i|``, and Theorem 5 per object
    (``|q, s| >= |q, p_j| - U(P_j)``), which reads ``|p_i, p_j| - |q, p_i| -
    U(P_j)``.  Both are monotone in ``|q, p_j|``, so the distance would have
    rejected the cell too.  Each follows its rule's switch; ``theta = inf``
    always passes.  Scalars or aligned arrays, the same IEEE operations
    either way.
    """
    slack = theta + PRUNE_EPS
    needed = True
    if hyperplane:
        needed = dist_pi_pj / 2.0 - dist_q_pi <= slack
    if ring:
        needed = needed & (dist_pi_pj - dist_q_pi - upper_pj <= slack)
    return needed


def ring_bounds(
    lower: float, upper: float, dist_q_pj: float, theta: float
) -> tuple[float, float]:
    """Theorem 2 ring ``[lo, hi]`` of admissible pivot distances.

    ``lower``/``upper`` are ``L(P_j)`` / ``U(P_j)`` from the summary table.
    An empty ring (``lo > hi``) means no object of the cell qualifies.  Each
    end moves out by ``PRUNE_EPS`` and ``PRUNE_RTOL`` of ``|q, p_j| + theta``
    (theta counted when finite): the rounding of the computed distances it
    is made of, at any coordinate scale.
    """
    slack = PRUNE_EPS + PRUNE_RTOL * (dist_q_pj + (theta if math.isfinite(theta) else 0.0))
    lo = max(lower, dist_q_pj - theta) - slack
    hi = min(upper, dist_q_pj + theta) + slack
    return lo, hi


def ring_slice(
    sorted_pivot_dists: np.ndarray, lower: float, upper: float, dist_q_pj: float, theta: float
) -> tuple[int, int]:
    """Indices ``[start, stop)`` of ring survivors in a sorted distance array.

    ``sorted_pivot_dists`` holds the pivot distances of the cell's objects in
    ascending order; the Theorem 2 ring is then a contiguous slice.
    """
    lo, hi = ring_bounds(lower, upper, dist_q_pj, theta)
    if lo > hi:
        return 0, 0
    start = int(np.searchsorted(sorted_pivot_dists, lo, side="left"))
    stop = int(np.searchsorted(sorted_pivot_dists, hi, side="right"))
    return start, stop


def ring_slices(
    sorted_pivot_dists: np.ndarray,
    lower: "float | np.ndarray",
    upper: "float | np.ndarray",
    dist_q_pj: np.ndarray,
    theta: np.ndarray,
    segment: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`ring_slice` for many queries.

    ``dist_q_pj`` and ``theta`` are aligned per-query arrays; returns
    ``(starts, stops)`` index arrays.  ``theta = +inf`` degenerates to the
    full slice (the ring covers the cell's whole occupied band), matching the
    per-record path's explicit full-scan branch; the ends' slack is
    :func:`ring_bounds`'.

    With ``segment`` the queries go against *different* cells of one
    concatenated array: ``sorted_pivot_dists`` is then its
    :func:`segment_keys`, ``lower``/``upper`` are per query, ``segment[i]``
    names the cell query ``i`` searches, and the slices come back in the
    concatenated array's coordinates.  The search compares (cell, distance)
    lexicographically — no arithmetic touches the distances, so each slice is
    exactly the per-cell one shifted by the cell's offset.
    """
    slack = PRUNE_EPS + PRUNE_RTOL * (dist_q_pj + np.where(np.isfinite(theta), theta, 0.0))
    lo = np.maximum(lower, dist_q_pj - theta) - slack
    hi = np.minimum(upper, dist_q_pj + theta) + slack
    empty = lo > hi
    if segment is not None:
        lo, hi = segment_keys(segment, lo), segment_keys(segment, hi)
    starts = np.searchsorted(sorted_pivot_dists, lo, side="left")
    stops = np.searchsorted(sorted_pivot_dists, hi, side="right")
    if empty.any():
        starts[empty] = 0
        stops[empty] = 0
    return starts, stops


def segment_keys(segment: np.ndarray, pivot_dists: np.ndarray) -> np.ndarray:
    """``(segment, pivot distance)`` pairs as complex numbers.

    numpy orders complex values lexicographically (real part, then
    imaginary), so a concatenation of per-cell sorted distance arrays keyed
    this way is globally sorted and one ``searchsorted`` serves every cell.
    The parts are stored, never computed with: segment numbers are small
    integers and the distances keep their exact bits.
    """
    keys = np.empty(pivot_dists.shape[0], dtype=np.complex128)
    keys.real = segment
    keys.imag = pivot_dists
    return keys
