"""Geometric grouping (paper Algorithm 4).

Partitions whose pivots are near each other join the same group, so the
group's members share candidate regions of ``S``; partitions of ``S`` far
from the whole group are likely pruned.  The algorithm:

1. seed group 1 with the pivot farthest from all other pivots;
2. seed each further group with the pivot farthest from all seeds so far
   (maximizing inter-group separation);
3. repeatedly give the group with the fewest R objects the unassigned pivot
   closest to its members (load balancing: group sizes end up nearly equal).

PGBJ then refines the groups by counted S copies
(:mod:`repro.grouping.refine`), never past this output's largest R load.
"""

from __future__ import annotations

import numpy as np

from repro.core.summary import SummaryTable

from .base import GroupAssignment, GroupingStrategy

__all__ = ["GeometricGrouping"]


class GeometricGrouping(GroupingStrategy):
    """Algorithm 4: farthest-first seeding plus smallest-group-first filling."""

    name = "geometric"

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
            # at most one partition per group: grouping degenerates
            groups = [[pid] for pid in partition_ids]
            groups += [[] for _ in range(num_groups - len(partition_ids))]
            return GroupAssignment.from_groups(groups)

        pids = tr.cells
        dists = pivot_dist_matrix[np.ix_(pids, pids)]  # local index space
        counts = tr.counts
        m = len(pids)

        unassigned = np.ones(m, dtype=bool)
        groups_local: list[list[int]] = []
        group_sizes = np.zeros(num_groups, dtype=np.int64)

        # line 1-2: first seed = pivot with maximum total distance to the rest
        first = int(np.argmax(dists.sum(axis=1)))
        groups_local.append([first])
        unassigned[first] = False
        group_sizes[0] = counts[first]
        seed_dist_sum = dists[first].copy()  # sum of distances to chosen seeds

        # lines 3-5: each next seed maximizes distance to all previous seeds
        for g in range(1, num_groups):
            masked = np.where(unassigned, seed_dist_sum, -np.inf)
            seed = int(np.argmax(masked))
            groups_local.append([seed])
            unassigned[seed] = False
            group_sizes[g] = counts[seed]
            seed_dist_sum += dists[seed]

        # per-group running sum of distances from every pivot to group members
        member_dist_sum = np.stack([dists[group[0]] for group in groups_local])

        # lines 6-9: smallest group takes its nearest unassigned pivot
        remaining = int(unassigned.sum())
        for _ in range(remaining):
            g = int(np.argmin(group_sizes))
            masked = np.where(unassigned, member_dist_sum[g], np.inf)
            pick = int(np.argmin(masked))
            groups_local[g].append(pick)
            unassigned[pick] = False
            group_sizes[g] += counts[pick]
            member_dist_sum[g] += dists[pick]

        groups = [[int(pids[local]) for local in group] for group in groups_local]
        assignment = GroupAssignment.from_groups(groups)
        assignment.validate_covers(partition_ids)
        return assignment
