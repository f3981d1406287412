"""kNN distance bounds and replication bounds (paper Section 4.3 and 5).

This module implements the set-oriented bounding machinery that lets the
second MapReduce job ship only the necessary part of ``S`` to each reducer:

* **Theorem 3** — ``ub(s, P_i^R) = U(P_i^R) + |p_i, p_j| + |p_j, s|`` upper
  bounds the distance from ``s`` (in cell ``P_j^S``) to *every* ``r`` in cell
  ``P_i^R``.
* **Algorithm 1 (boundingKNN)** — the k smallest upper bounds over the
  ``KNN(p_j, P_j^S)`` entries of ``T_S`` yield ``theta_i`` (Equation 6), a
  radius that certainly contains the k nearest neighbors of every
  ``r in P_i^R``.
* **Theorem 4** — ``lb(s, P_i^R) = max(0, |p_i, p_j| - U(P_i^R) - |p_j, s|)``
  lower bounds the same distances; ``lb > theta_i`` proves ``s`` irrelevant.
* **Theorem 5 / Corollary 2** — rearranged into the shipping rule: ``s`` must
  be sent to ``S_i`` iff ``|s, p_j| >= LB(P_j^S, P_i^R)`` where
  ``LB = |p_i, p_j| - U(P_i^R) - theta_i``.
* **Theorem 6** — with partitions merged into reducer groups,
  ``LB(P_j^S, G_i) = min over P^R in G_i`` of the partition-level bound.
* **Algorithm 2 (compLBOfReplica)** — computes every ``LB`` ahead of the map
  phase.

The shipping rule applied is Theorem 6 member by member, with one more test
per member: ``s`` (in ``P_j^S``) goes to group ``G`` only if some R cell
``i`` of ``G`` passes Theorem 5 for that one cell, ``|s, p_j| >=
LB(P_j^S, P_i^R)``, *and* lies within ``theta_i`` of ``s`` around every
anchor ``a`` of the partitioner: the gap between ``s``'s decoded range of
``|s, a|`` and the cell's anchor hull ``[lo_a(i), hi_a(i)]`` (the extremes
of its members' exact ``|r, a|``, :func:`cell_anchor_hulls`) is at most
``theta_i``.  A kNN ``s`` of ``r in P_i^R`` has ``|r, s| <= theta_i`` and
``|r, s| >= | |r, a| - |s, a| |``, so no kNN is ever left behind, and a
self-join's own copy always passes, since its cell's hull holds its own
``|s, a|``.  :func:`rank_members` orders each group's members by ``LB`` so
the mapper tests the likeliest member first and stops at the first that
Theorem 5 refuses.

Everything here consumes only the summary tables and the pivot-to-pivot
distance matrix — no object data — mirroring the paper's "byproduct of the
first MapReduce" design.
"""

from __future__ import annotations

import heapq

import numpy as np

from .geometry import PRUNE_RTOL
from .summary import SummaryTable

__all__ = [
    "upper_bound",
    "lower_bound",
    "bounding_knn",
    "compute_thetas",
    "theta_bounds",
    "compute_lb_matrix",
    "group_lb_matrix",
    "rank_members",
    "cell_anchor_hulls",
]


#: bytes of the bound matrix :func:`compute_thetas` ranks at once
_THETA_BYTES = 1 << 20


def upper_bound(u_ri: float, dist_pi_pj: float, dist_s_pj: float) -> float:
    """Theorem 3: upper bound on ``|r, s|`` for every ``r`` in ``P_i^R``."""
    return u_ri + dist_pi_pj + dist_s_pj


def lower_bound(u_ri: float, dist_pi_pj: float, dist_s_pj: float) -> float:
    """Theorem 4: lower bound on ``|r, s|`` for every ``r`` in ``P_i^R``."""
    return max(0.0, dist_pi_pj - u_ri - dist_s_pj)


def bounding_knn(
    u_ri: float,
    pivot_dists_from_i: np.ndarray,
    ts: SummaryTable,
    k: int,
) -> float:
    """Algorithm 1: the kNN-radius bound ``theta_i`` for one R-partition.

    Parameters
    ----------
    u_ri:
        ``U(P_i^R)`` from ``T_R``.
    pivot_dists_from_i:
        Row ``i`` of the pivot distance matrix: ``|p_i, p_j|`` for all ``j``.
    ts:
        The merged ``T_S`` summary table (each cell's run of ascending pivot
        distances starts with its ``KNN(p_j, P_j^S)``).
    k:
        Number of neighbors joined.

    Returns the k-th smallest Theorem 3 upper bound, i.e. ``theta_i`` of
    Equation 6.  Raises ``ValueError`` when ``S`` holds fewer than k objects
    (the paper assumes ``k <= |S|``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # max-heap of the k smallest upper bounds, stored negated
    heap: list[float] = []
    runs = np.split(ts.distances, ts.offsets[1:-1])
    for j, run in zip(ts.partition_ids(), runs):
        base = u_ri + float(pivot_dists_from_i[j])
        for dist_s_pj in run.tolist():  # ascending within the cell
            ub = base + dist_s_pj
            if len(heap) < k:
                heapq.heappush(heap, -ub)
            elif ub < -heap[0]:
                heapq.heapreplace(heap, -ub)
            else:
                break  # later entries of this cell only grow
    if len(heap) < k:
        raise ValueError(
            f"cannot bound {k} nearest neighbors: S holds only {len(heap)} objects"
        )
    return -heap[0]


def compute_thetas(
    tr: SummaryTable,
    ts: SummaryTable,
    pivot_dist_matrix: np.ndarray,
    k: int,
) -> dict[int, float]:
    """``theta_i`` for every non-empty R-partition: Algorithm 1, all rows at
    once — :func:`theta_bounds` over ``T_R``'s ``U`` and ``T_S``'s runs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    held = int(np.minimum(ts.counts, k).sum())
    if len(tr) and held < k:
        raise ValueError(f"cannot bound {k} nearest neighbors: S holds only {held} objects")
    pivot_dists = pivot_dist_matrix[np.ix_(tr.cells, ts.cells)]
    thetas = theta_bounds(tr.upper, pivot_dists, ts.offsets, ts.distances, k)
    return dict(zip(tr.partition_ids(), thetas))


def theta_bounds(
    uppers: np.ndarray, pivot_dists: np.ndarray, offsets: np.ndarray, nearest: np.ndarray, k: int
) -> list[float]:
    """Algorithm 1's arithmetic: per R cell ``i``, the k-th smallest Theorem 3
    bound ``(U_i + |p_i, p_j|) + |s, p_j|`` over the first k entries of every
    S cell's ascending run ``nearest[offsets[j]:offsets[j + 1]]`` (``inf``
    where a cell holds fewer) — the operations, and so the floats, of the
    scalar oracle :func:`bounding_knn` — in chunks of R rows.
    ``pivot_dists`` is ``(R cells, S cells)``; the cells must hold at least
    k objects in all."""
    taken = np.arange(k)
    held = taken < np.diff(offsets)[:, None]
    table = np.full(held.shape, np.inf, dtype=np.float64)
    table[held] = nearest[(offsets[:-1, None] + taken)[held]]
    base = uppers[:, None] + pivot_dists
    thetas: list[float] = []
    chunk = max(1, _THETA_BYTES // (8 * max(1, table.size)))
    for lo in range(0, len(uppers), chunk):
        bounds = (base[lo : lo + chunk, :, None] + table).reshape(-1, table.size)
        thetas += np.partition(bounds, k - 1, axis=1)[:, k - 1].tolist()
    return thetas


def compute_lb_matrix(
    tr: SummaryTable,
    pivot_dist_matrix: np.ndarray,
    thetas: dict[int, float],
) -> np.ndarray:
    """Algorithm 2: dense ``LB(P_j^S, P_i^R)`` for all partition pairs.

    Returns an ``(M, M)`` array indexed ``[j, i]`` (S-partition row,
    R-partition column).  Columns of empty R-partitions are ``+inf`` — no
    object ever needs to be shipped toward them.  The Corollary 2 shipping
    rule is then ``|s, p_j| >= lb_matrix[j, i]``.  ``thetas`` holds every
    cell of ``tr`` (:func:`compute_thetas`).
    """
    num_pivots = pivot_dist_matrix.shape[0]
    lb = np.full((num_pivots, num_pivots), np.inf, dtype=np.float64)
    theta = np.array([thetas[i] for i in tr.partition_ids()], dtype=np.float64)
    lb[:, tr.cells] = pivot_dist_matrix[:, tr.cells] - tr.upper - theta
    return lb


def group_lb_matrix(lb_matrix: np.ndarray, groups: list[list[int]]) -> np.ndarray:
    """Theorem 6: ``LB(P_j^S, G_i) = min over members`` of the partition LBs.

    Parameters
    ----------
    lb_matrix:
        Output of :func:`compute_lb_matrix`, indexed ``[j, i]``.
    groups:
        ``groups[g]`` lists the R-partition ids assigned to reducer group
        ``g``.  Empty groups yield an all-``+inf`` column (receive nothing).

    Returns an ``(M, num_groups)`` array indexed ``[j, g]``.
    """
    num_pivots = lb_matrix.shape[0]
    out = np.full((num_pivots, len(groups)), np.inf, dtype=np.float64)
    for g, members in enumerate(groups):
        if members:
            out[:, g] = lb_matrix[:, members].min(axis=1)
    return out


def rank_members(
    lb_matrix: np.ndarray, groups: list[list[int]], dtype=np.intp
) -> tuple[np.ndarray, np.ndarray]:
    """Theorem 6 member by member: ``(ranked, edges)``, where row ``j`` of
    the ``(M, members)`` array ``ranked`` lists every group's R cells in
    ascending ``LB(P_j^S, P_i^R)`` (:func:`compute_lb_matrix`), group ``g``'s
    run in columns ``[edges[g], edges[g + 1])``.  A run's first cell bounds
    Theorem 6's ``LB(P_j^S, G_g)``, and the cells whose Theorem 5 admits an
    ``s`` of ``P_j^S`` are a prefix of its run."""
    edges = np.concatenate(([0], np.cumsum([len(members) for members in groups])))
    ranked = np.empty((lb_matrix.shape[0], int(edges[-1])), dtype=dtype)
    for members, lo, hi in zip(groups, edges[:-1], edges[1:]):
        cells = np.asarray(members, dtype=np.intp)
        ranked[:, lo:hi] = cells[np.argsort(lb_matrix[:, cells], axis=1)]
    return ranked, edges


def cell_anchor_hulls(table: SummaryTable, num_pivots: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, ``(A, M)``: per anchor and cell the hull of its members'
    exact anchor distances (the table's ``hulls``; ``A`` is 0 when it
    carries none), each end moved out by ``PRUNE_RTOL`` of the larger, as
    :func:`~repro.core.geometry.anchor_ranges` moves a decoded hull; an empty
    cell's hull is empty (``+inf``, ``-inf``), so nothing is ever within
    reach of it."""
    hulls = np.empty((2, 0, len(table))) if table.hulls is None else table.hulls
    lo = np.full((hulls.shape[1], num_pivots), np.inf)
    hi = np.full((hulls.shape[1], num_pivots), -np.inf)
    slack = PRUNE_RTOL * np.abs(hulls).max(axis=0)
    lo[:, table.cells] = hulls[0] - slack
    hi[:, table.cells] = hulls[1] + slack
    return lo, hi
