"""Replication cost model (paper Section 5.1, Theorems 6-7, Eq. 11-12).

``RP(S)`` — the number of S-object replicas shipped through the shuffle — is
the quantity both grouping strategies try to minimize.  Two estimators:

* :func:`exact_replication` implements Theorem 7 / Equation 11 given the
  actual per-object pivot distances (available to measurement code after the
  first job, and to tests).
* :func:`approx_replication` implements Equation 12, the summary-only
  approximation the greedy grouper uses at the master: once *any* object of
  ``P_j^S`` qualifies (``LB <= U(P_j^S)``), the whole partition is charged.
"""

from __future__ import annotations

import numpy as np

from repro.core.geometry import PRUNE_EPS
from repro.core.summary import SummaryTable

__all__ = ["exact_replication", "approx_replication", "approx_replication_vector"]


def exact_replication(
    lb_group_matrix: np.ndarray,
    s_partition_ids: np.ndarray,
    s_pivot_distances: np.ndarray,
) -> int:
    """Equation 11 summed over groups: total replicas of S objects.

    Parameters
    ----------
    lb_group_matrix:
        ``LB(P_j^S, G_i)`` indexed ``[j, g]`` (from
        :func:`repro.core.bounds.group_lb_matrix`).
    s_partition_ids, s_pivot_distances:
        Per-object cell id and pivot distance of every ``s`` (first job
        output).
    """
    thresholds = lb_group_matrix[s_partition_ids]  # (|S|, num_groups)
    total = int((s_pivot_distances[:, None] >= thresholds - PRUNE_EPS).sum())
    return total


def approx_replication_vector(
    lb_group_columns: np.ndarray, ts: SummaryTable
) -> np.ndarray:
    """Equation 12 per group: whole-partition replica estimate.

    ``lb_group_columns`` is ``(M, G)`` — ``LB(P_j^S, G_i)`` with ``+inf`` for
    groups that cannot receive a partition.  Returns a ``(G,)`` vector of
    estimated replica counts.
    """
    qualifies = lb_group_columns[ts.cells] <= (ts.upper + PRUNE_EPS)[:, None]
    return (ts.counts[:, None] * qualifies).sum(axis=0)


def approx_replication(lb_group_columns: np.ndarray, ts: SummaryTable) -> int:
    """Equation 12 summed over all groups."""
    return int(approx_replication_vector(lb_group_columns, ts).sum())
