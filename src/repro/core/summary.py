"""Summary tables ``T_R`` and ``T_S`` (paper Section 4.2, Figure 3).

The first MapReduce job, while partitioning ``R`` and ``S``, collects small
in-memory tables of per-partition statistics:

* ``T_R`` keeps, for every partition of ``R``: the partition id, the number of
  objects, and the minimum/maximum object-to-pivot distances
  ``L(P_i^R)`` / ``U(P_i^R)``.
* ``T_S`` keeps the same fields for ``S`` **plus** the ``k`` smallest
  object-to-pivot distances of the partition (``p_i.d_1 <= ... <= p_i.d_k``),
  i.e. the distances of ``KNN(p_i, P_i^S)``.  Only those k objects can ever
  refine the kNN-radius bound of Theorem 3, so nothing more is kept.
* Rows of both tables also carry the cell's *anchor hull*: per anchor ``a``
  of the partitioner the smallest and largest exact distance ``|o, a|`` of
  its members, ``lo_a(i)`` and ``hi_a(i)``, which the partitioning job
  computed to assign them.  The shipping rule reads ``T_R``'s: ``s`` goes to
  a group only if one of its R cells ``i`` passes Theorem 5 and lies within
  ``theta_i`` of ``s`` around every anchor, since a kNN ``s`` of ``r`` has
  ``|r, s| <= theta_i`` and ``|r, s| >= | |r, a| - |s, a| |``
  (:func:`~repro.core.bounds.cell_anchor_hulls`).  The master's replication
  model reads both, cell against cell (:mod:`repro.grouping.refine`).

Each map task builds a *partial* table over its input split in one pass over
its rows; the partial tables are merged when the job completes ("Index
Merging" in Figure 6): counts add, bounds and hulls take the elementwise
minimum and maximum, kNN lists the k smallest of both.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

__all__ = ["PartitionStat", "SummaryTable", "build_partial_summary"]


@dataclass
class PartitionStat:
    """One row of a summary table.

    ``knn_distances`` is empty for ``T_R`` rows and holds the (ascending)
    ``min(k, count)`` smallest object-to-pivot distances for ``T_S`` rows.
    ``anchor_hull`` is the row's ``(2, A)`` anchor hull, per anchor the
    smallest and largest ``|o, a|`` of its members (``None`` when not
    collected).  An array compares elementwise, so rows compare by their
    other fields.
    """

    partition_id: int
    count: int
    lower: float  # L(P_i): min object-to-pivot distance
    upper: float  # U(P_i): max object-to-pivot distance
    knn_distances: tuple[float, ...] = field(default_factory=tuple)
    anchor_hull: np.ndarray | None = field(default=None, compare=False)

    def merged_with(self, other: "PartitionStat", k: int) -> "PartitionStat":
        """Combine two partial rows for the same partition."""
        if other.partition_id != self.partition_id:
            raise ValueError("cannot merge rows of different partitions")
        knn = tuple(sorted(self.knn_distances + other.knn_distances)[:k]) if k else ()
        return PartitionStat(
            partition_id=self.partition_id,
            count=self.count + other.count,
            lower=min(self.lower, other.lower),
            upper=max(self.upper, other.upper),
            knn_distances=knn,
            anchor_hull=_merged_hull(self.anchor_hull, other.anchor_hull),
        )

    def estimated_bytes(self) -> int:
        """Serialized size (id + count + two bounds + the kNN list + the hull)."""
        hull = 0 if self.anchor_hull is None else self.anchor_hull.size
        return 8 * (4 + len(self.knn_distances) + hull)


def _merged_hull(left: np.ndarray | None, right: np.ndarray | None) -> np.ndarray | None:
    """Two rows' anchor hulls merged anchor by anchor; a row without a hull
    (none collected) takes the other's."""
    if left is None or right is None:
        return right if left is None else left
    hull = np.minimum(left, right)
    np.maximum(left[1], right[1], out=hull[1])
    return hull


class SummaryTable:
    """A summary table: a mapping of partition id to :class:`PartitionStat`.

    Parameters
    ----------
    k:
        How many smallest pivot distances each row retains.  Use ``0`` for
        ``T_R`` and the join's ``k`` for ``T_S``.
    """

    def __init__(self, k: int = 0) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        self._rows: dict[int, PartitionStat] = {}

    # -- construction --------------------------------------------------------

    def add(self, stat: PartitionStat) -> None:
        """Insert or merge one (partial) row."""
        existing = self._rows.get(stat.partition_id)
        if existing is None:
            knn = tuple(sorted(stat.knn_distances)[: self.k])
            self._rows[stat.partition_id] = replace(stat, knn_distances=knn)
        else:
            self._rows[stat.partition_id] = existing.merged_with(stat, self.k)

    def merge(self, other: "SummaryTable") -> None:
        """Merge another (partial) table into this one in place."""
        for stat in other.rows():
            self.add(stat)

    # -- queries --------------------------------------------------------------

    def __contains__(self, partition_id: int) -> bool:
        return int(partition_id) in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, partition_id: int) -> PartitionStat:
        """The row for a partition; raises ``KeyError`` if it is empty/absent."""
        return self._rows[int(partition_id)]

    def partition_ids(self) -> list[int]:
        """Sorted ids of partitions present (i.e. non-empty)."""
        return sorted(self._rows)

    def rows(self) -> list[PartitionStat]:
        """All rows, ordered by partition id."""
        return [self._rows[pid] for pid in self.partition_ids()]

    def upper_of(self, partition_id: int) -> float:
        """``U(P_i)`` convenience accessor."""
        return self._rows[int(partition_id)].upper

    def counts(self, num_partitions: int) -> np.ndarray:
        """Dense per-partition counts (zeros for empty cells)."""
        out = np.zeros(num_partitions, dtype=np.int64)
        for pid, stat in self._rows.items():
            out[pid] = stat.count
        return out

    def estimated_bytes(self) -> int:
        """Total serialized size of the table (for DFS/broadcast accounting)."""
        return sum(stat.estimated_bytes() for stat in self._rows.values())


def build_partial_summary(
    partition_ids: np.ndarray,
    pivot_distances: np.ndarray,
    k: int = 0,
    anchor_dists: np.ndarray | None = None,
) -> SummaryTable:
    """Build the summary table of one map split from its assignments.

    Parameters mirror the per-object output of the first job's mapper: the
    Voronoi cell of each object, its distance to the cell's pivot and,
    optionally, its ``(rows, A)`` distances to the partitioner's anchors,
    whose per-cell minimum and maximum become the rows' anchor hulls.  One pass
    over the rows: sorted by cell (the partitioning mapper's rows already
    are), then by distance when kNN lists are kept, each cell's row is
    reduced from its run.
    """
    table = SummaryTable(k=k)
    pids = np.asarray(partition_ids)
    dists = np.asarray(pivot_distances)
    if pids.size == 0:
        return table
    if k:
        order = np.lexsort((dists, pids))
    elif (pids[1:] < pids[:-1]).any():
        order = np.argsort(pids, kind="stable")
    else:
        order = None
    if order is not None:
        pids, dists = pids[order], dists[order]
        if anchor_dists is not None:
            anchor_dists = anchor_dists[order]
    starts = np.flatnonzero(np.concatenate(([True], pids[1:] != pids[:-1])))
    ends = np.append(starts[1:], pids.size)
    lower = np.minimum.reduceat(dists, starts).tolist()
    upper = np.maximum.reduceat(dists, starts).tolist()
    hulls: Iterable[np.ndarray | None] = repeat(None)
    if anchor_dists is not None:
        hulls = np.stack(
            [
                np.minimum.reduceat(anchor_dists, starts, axis=0),
                np.maximum.reduceat(anchor_dists, starts, axis=0),
            ],
            axis=1,
        )
    for pid, start, end, low, high, hull in zip(
        pids[starts].tolist(), starts.tolist(), ends.tolist(), lower, upper, hulls
    ):
        table._rows[pid] = PartitionStat(
            partition_id=pid,
            count=end - start,
            lower=low,
            upper=high,
            knn_distances=tuple(dists[start : min(end, start + k)].tolist()),
            anchor_hull=hull,
        )
    return table
