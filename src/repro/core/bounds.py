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

Everything here consumes only the summary tables and the pivot-to-pivot
distance matrix — no object data — mirroring the paper's "byproduct of the
first MapReduce" design.
"""

from __future__ import annotations

import heapq

import numpy as np

from .summary import SummaryTable

__all__ = [
    "upper_bound",
    "lower_bound",
    "bounding_knn",
    "compute_thetas",
    "compute_lb_matrix",
    "group_lb_matrix",
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
        The merged ``T_S`` summary table (its rows carry the ascending
        ``KNN(p_j, P_j^S)`` distances).
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
    for j in ts.partition_ids():
        base = u_ri + float(pivot_dists_from_i[j])
        for dist_s_pj in ts.get(j).knn_distances:  # ascending within the cell
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
    """``theta_i`` for every non-empty R-partition: Algorithm 1, all rows at once.

    The k-th smallest per row of the ``(M_R, M_S * k)`` matrix of Theorem 3
    bounds ``(U_i + |p_i, p_j|) + |s, p_j|`` over each cell's k nearest-to-pivot
    entries (``inf`` where a cell holds fewer) — the operations, and so the
    floats, of the scalar oracle :func:`bounding_knn` — in chunks of R rows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    r_pids, s_pids = tr.partition_ids(), ts.partition_ids()
    knn = np.full((len(s_pids), k), np.inf, dtype=np.float64)
    for row, pid in enumerate(s_pids):
        nearest = ts.get(pid).knn_distances[:k]  # ascending within the cell
        knn[row, : len(nearest)] = nearest
    held = int(np.isfinite(knn).sum())
    if r_pids and held < k:
        raise ValueError(f"cannot bound {k} nearest neighbors: S holds only {held} objects")
    base = np.array([tr.get(pid).upper for pid in r_pids], dtype=np.float64)[:, None]
    base = base + pivot_dist_matrix[np.ix_(r_pids, s_pids)]
    thetas: list[float] = []
    chunk = max(1, _THETA_BYTES // (8 * max(1, knn.size)))
    for lo in range(0, len(r_pids), chunk):
        bounds = (base[lo : lo + chunk, :, None] + knn).reshape(-1, knn.size)
        thetas += np.partition(bounds, k - 1, axis=1)[:, k - 1].tolist()
    return dict(zip(r_pids, thetas))


def compute_lb_matrix(
    tr: SummaryTable,
    pivot_dist_matrix: np.ndarray,
    thetas: dict[int, float],
) -> np.ndarray:
    """Algorithm 2: dense ``LB(P_j^S, P_i^R)`` for all partition pairs.

    Returns an ``(M, M)`` array indexed ``[j, i]`` (S-partition row,
    R-partition column).  Columns of empty R-partitions are ``+inf`` — no
    object ever needs to be shipped toward them.  The Corollary 2 shipping
    rule is then ``|s, p_j| >= lb_matrix[j, i]``.
    """
    num_pivots = pivot_dist_matrix.shape[0]
    lb = np.full((num_pivots, num_pivots), np.inf, dtype=np.float64)
    for i in tr.partition_ids():
        lb[:, i] = pivot_dist_matrix[:, i] - tr.get(i).upper - thetas[i]
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
