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
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PRUNE_EPS",
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
    ``p_i``'s side.
    """
    if not euclidean:
        return max(0.0, (dist_q_pj - dist_q_pi) / 2.0)
    if dist_pi_pj <= 0.0:
        # coincident pivots: the hyperplane is undefined; nothing can be
        # pruned, report distance 0 (never exceeds any non-negative theta).
        return 0.0
    return (dist_q_pj * dist_q_pj - dist_q_pi * dist_q_pi) / (2.0 * dist_pi_pj)


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
    gaps = (dist_q_pj * dist_q_pj - dist_q_pi * dist_q_pi) / denominator
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

    False where a bound needing no new distance already exceeds
    ``theta + PRUNE_EPS``, both from ``|q, p_j| >= |p_i, p_j| - |q, p_i|``:
    Corollary 1 with that lower bound in place of ``|q, p_j|`` —
    ``d(q, HP(p_i, p_j)) >= |p_i, p_j| / 2 - |q, p_i|``, for Equation 3 and
    the generic GH bound alike — and Theorem 5 per object —
    ``|q, s| >= |p_i, p_j| - |q, p_i| - U(P_j)`` for every ``s`` in ``P_j``.
    Each follows the switch of the rule it derives from; ``theta = inf`` and
    coincident pivots (the own cell) always need the distance.  Scalars or
    aligned arrays, the same IEEE operations either way.
    """
    slack = theta + PRUNE_EPS
    needed = True
    if hyperplane:
        needed = dist_pi_pj / 2.0 - dist_q_pi <= slack
    if ring:
        needed = needed & ((dist_pi_pj - dist_q_pi) - upper_pj <= slack)
    return needed


def ring_bounds(
    lower: float, upper: float, dist_q_pj: float, theta: float
) -> tuple[float, float]:
    """Theorem 2 ring ``[lo, hi]`` of admissible pivot distances.

    ``lower``/``upper`` are ``L(P_j)`` / ``U(P_j)`` from the summary table.
    An empty ring (``lo > hi``) means no object of the cell qualifies.
    """
    lo = max(lower, dist_q_pj - theta) - PRUNE_EPS
    hi = min(upper, dist_q_pj + theta) + PRUNE_EPS
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
    per-record path's explicit full-scan branch.

    With ``segment`` the queries go against *different* cells of one
    concatenated array: ``sorted_pivot_dists`` is then its
    :func:`segment_keys`, ``lower``/``upper`` are per query, ``segment[i]``
    names the cell query ``i`` searches, and the slices come back in the
    concatenated array's coordinates.  The search compares (cell, distance)
    lexicographically — no arithmetic touches the distances, so each slice is
    exactly the per-cell one shifted by the cell's offset.
    """
    lo = np.maximum(lower, dist_q_pj - theta) - PRUNE_EPS
    hi = np.minimum(upper, dist_q_pj + theta) + PRUNE_EPS
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
