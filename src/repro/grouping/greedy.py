"""Greedy grouping (paper Section 5.2.2).

Same skeleton as geometric grouping — farthest-first seeds, then the group
with the fewest R objects claims one more partition per round — but the
partition is chosen to minimize the *replication increment*
``RP(S, G_i ∪ {P_j^R}) − RP(S, G_i)`` instead of pivot proximity.  The paper
(Equation 12) approximates ``RP`` at whole-partition granularity, since it
takes the exact increment to need object-level data: as soon as a partition
of S qualifies at all (``LB(P_j^S, G_i) <= U(P_j^S)``), all of its objects are
charged.  That data is on the master after all — the partitioning job's
``T_S`` partials ship every ``|s, p_j|`` — and PGBJ's grouping step uses it
after either strategy: :mod:`repro.grouping.refine` counts the copies object
by object and moves R cells between the groups while they fall.
"""

from __future__ import annotations

import numpy as np

from repro.core.geometry import PRUNE_EPS
from repro.core.summary import SummaryTable

from .base import GroupAssignment, GroupingStrategy

__all__ = ["GreedyGrouping"]


class GreedyGrouping(GroupingStrategy):
    """Replication-minimizing grouping via the Equation 12 cost model."""

    name = "greedy"

    def group(
        self,
        tr: SummaryTable,
        ts: SummaryTable,
        pivot_dist_matrix: np.ndarray,
        lb_matrix: np.ndarray,
        num_groups: int,
    ) -> GroupAssignment:
        partition_ids = self._check(tr, num_groups)
        if num_groups >= len(partition_ids):
            groups = [[pid] for pid in partition_ids]
            groups += [[] for _ in range(num_groups - len(partition_ids))]
            return GroupAssignment.from_groups(groups)

        pids = tr.cells
        m = len(pids)
        counts_r = tr.counts
        dists = pivot_dist_matrix[np.ix_(pids, pids)]
        # LB(P_j^S, P_i^R) restricted to the grouped R-partitions, dense over
        # all S rows (absent S partitions get zero weight below)
        lb_cols = lb_matrix[:, pids]  # (M_total, m)
        num_s_rows = lb_matrix.shape[0]
        s_counts = np.zeros(num_s_rows, dtype=np.int64)
        s_upper = np.full(num_s_rows, -np.inf, dtype=np.float64)
        s_counts[ts.cells] = ts.counts
        s_upper[ts.cells] = ts.upper

        unassigned = np.ones(m, dtype=bool)
        groups_local: list[list[int]] = []
        group_sizes = np.zeros(num_groups, dtype=np.int64)
        # per-group LB(P_j^S, G_i) vectors (Theorem 6 running minimum)
        group_lb = np.full((num_groups, num_s_rows), np.inf, dtype=np.float64)

        # farthest-first seeding, identical to geometric grouping
        first = int(np.argmax(dists.sum(axis=1)))
        groups_local.append([first])
        unassigned[first] = False
        group_sizes[0] = counts_r[first]
        group_lb[0] = lb_cols[:, first]
        seed_dist_sum = dists[first].copy()
        for g in range(1, num_groups):
            masked = np.where(unassigned, seed_dist_sum, -np.inf)
            seed = int(np.argmax(masked))
            groups_local.append([seed])
            unassigned[seed] = False
            group_sizes[g] = counts_r[seed]
            group_lb[g] = lb_cols[:, seed]
            seed_dist_sum += dists[seed]

        remaining = int(unassigned.sum())
        for _ in range(remaining):
            g = int(np.argmin(group_sizes))
            candidates = np.flatnonzero(unassigned)
            # Equation 12 replication of G_g extended by each candidate
            new_lb = np.minimum(group_lb[g][:, None], lb_cols[:, candidates])
            qualifies = new_lb <= (s_upper + PRUNE_EPS)[:, None]
            replication = (s_counts[:, None] * qualifies).sum(axis=0)
            pick = int(candidates[np.argmin(replication)])
            groups_local[g].append(pick)
            unassigned[pick] = False
            group_sizes[g] += counts_r[pick]
            group_lb[g] = np.minimum(group_lb[g], lb_cols[:, pick])

        groups = [[int(pids[local]) for local in group] for group in groups_local]
        assignment = GroupAssignment.from_groups(groups)
        assignment.validate_covers(partition_ids)
        return assignment
