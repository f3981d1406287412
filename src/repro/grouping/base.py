"""Grouping interface: merging R-partitions into reducer groups (Section 5).

With many pivots the Voronoi cells are fine-grained — far more than there are
reducers — so PGBJ merges the cells of ``R`` into ``N`` disjoint groups, one
per reducer.  A :class:`GroupAssignment` records both directions of the
mapping and is consumed by the second job's mapper, after
:func:`~repro.grouping.refine.refine_groups` has moved and swapped cells
between the strategy's groups to cut the S copies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.summary import SummaryTable

__all__ = ["GroupAssignment", "GroupingStrategy"]


@dataclass
class GroupAssignment:
    """The outcome of grouping: ``groups[g]`` lists member R-partition ids."""

    groups: list[list[int]]
    partition_to_group: dict[int, int]

    @classmethod
    def from_groups(cls, groups: list[list[int]]) -> "GroupAssignment":
        """Build the reverse map, validating disjointness."""
        partition_to_group: dict[int, int] = {}
        for group_index, members in enumerate(groups):
            for pid in members:
                if pid in partition_to_group:
                    raise ValueError(f"partition {pid} assigned to two groups")
                partition_to_group[pid] = group_index
        return cls(groups=groups, partition_to_group=partition_to_group)

    @property
    def num_groups(self) -> int:
        """Number of reducer groups ``N``."""
        return len(self.groups)

    def group_of(self, partition_id: int) -> int:
        """Group index of one R-partition."""
        return self.partition_to_group[int(partition_id)]

    def group_sizes(self, tr: SummaryTable) -> np.ndarray:
        """Objects of ``R`` per group — the Table 3 statistic."""
        counts = tr.counts
        return np.array(
            [counts[np.searchsorted(tr.cells, members)].sum() for members in self.groups],
            dtype=np.int64,
        )

    def validate_covers(self, partition_ids: list[int]) -> None:
        """Check that exactly the given partitions are grouped."""
        grouped = set(self.partition_to_group)
        expected = {int(p) for p in partition_ids}
        if grouped != expected:
            raise ValueError(
                f"grouping covers {len(grouped)} partitions, expected {len(expected)}"
            )


class GroupingStrategy(ABC):
    """Splits the non-empty R-partitions into ``N`` reducer groups."""

    #: identifier used in experiment reports ("geometric" / "greedy")
    name: str = "abstract"

    @abstractmethod
    def group(
        self,
        tr: SummaryTable,
        ts: SummaryTable,
        pivot_dist_matrix: np.ndarray,
        lb_matrix: np.ndarray,
        num_groups: int,
    ) -> GroupAssignment:
        """Produce the assignment.

        Parameters
        ----------
        tr, ts:
            Merged summary tables of ``R`` and ``S``.
        pivot_dist_matrix:
            ``|p_i, p_j|`` for all pivot pairs.
        lb_matrix:
            ``LB(P_j^S, P_i^R)`` from Algorithm 2, indexed ``[j, i]`` — used
            by the greedy strategy's replication cost model.
        num_groups:
            ``N``, the number of reducers.
        """

    @staticmethod
    def _check(tr: SummaryTable, num_groups: int) -> list[int]:
        if num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        partition_ids = tr.partition_ids()
        if not partition_ids:
            raise ValueError("cannot group an empty dataset R")
        return partition_ids
