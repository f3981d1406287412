"""Summary tables ``T_R`` and ``T_S`` (paper Section 4.2, Figure 3).

The first MapReduce job, while partitioning ``R`` and ``S``, collects small
in-memory tables of per-cell statistics.  Both tables have one layout, a
column per field and an entry per non-empty Voronoi cell, cells ascending:

* ``counts``, ``lower`` and ``upper``: the cell's object count and its
  minimum/maximum object-to-pivot distances ``L(P_i)`` / ``U(P_i)``;
* every object-to-pivot distance of the cell, ascending, in CSR form
  (``offsets`` into the flat ``distances``).  ``T_S``'s first ``k`` of a
  cell are ``KNN(p_j, P_j^S)``, whose distances refine the kNN-radius bound
  of Theorem 3 (:func:`~repro.core.bounds.compute_thetas`), and the whole run
  is what the master's replication model counts copies from
  (:mod:`repro.grouping.refine`).  The table keeps every distance, so it does
  not depend on the join's ``k``;
* the cells' *anchor hulls*, ``(2, A, cells)``: per anchor ``a`` of the
  partitioner the smallest and largest exact distance ``|o, a|`` of the
  cell's members, ``lo_a(i)`` and ``hi_a(i)``, which the partitioning job
  computed to assign them.  The shipping rule reads ``T_R``'s: ``s`` goes to
  a group only if one of its R cells ``i`` passes Theorem 5 and lies within
  ``theta_i`` of ``s`` around every anchor, since a kNN ``s`` of ``r`` has
  ``|r, s| <= theta_i`` and ``|r, s| >= | |r, a| - |s, a| |``
  (:func:`~repro.core.bounds.cell_anchor_hulls`).  The master's replication
  model reads both, cell against cell.

Each map task builds a *partial* table over its input split; the partial
tables are merged when the job completes ("Index Merging" in Figure 6).
Building and merging are one routine: the entries (a split's objects, or
the partials' distances and hulls) are concatenated, sorted by ``(cell,
distance)`` and reduced per cell run, so counts add, bounds and hulls take
the minimum and maximum, and each cell's distances come out ascending.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = ["SummaryTable", "build_partial_summary", "merge_partial_summaries"]


@dataclass(frozen=True, eq=False)
class SummaryTable:
    """A summary table: per non-empty cell (``cells``, ascending) its
    ascending pivot distances ``distances[offsets[n]:offsets[n + 1]]`` and
    its ``(2, A)`` anchor hull ``hulls[:, :, n]`` (``hulls`` is ``None``
    when none were collected)."""

    cells: np.ndarray
    offsets: np.ndarray
    distances: np.ndarray
    hulls: np.ndarray | None = None

    @property
    def counts(self) -> np.ndarray:
        """Objects per cell."""
        return np.diff(self.offsets)

    @property
    def lower(self) -> np.ndarray:
        """``L(P_i)`` per cell: its smallest pivot distance."""
        return self.distances[self.offsets[:-1]]

    @property
    def upper(self) -> np.ndarray:
        """``U(P_i)`` per cell: its largest pivot distance."""
        return self.distances[self.offsets[1:] - 1]

    def __len__(self) -> int:
        return self.cells.size

    def partition_ids(self) -> list[int]:
        """Ascending ids of the non-empty cells."""
        return self.cells.tolist()


def _reduced(
    cells: np.ndarray,
    distances: np.ndarray,
    hull_cells: np.ndarray,
    hull_lo: np.ndarray | None,
    hull_hi: np.ndarray | None,
) -> SummaryTable:
    """The table of entries ``(cells, distances)`` and hull entries
    ``hull_cells`` with ``(A, entries)`` extremes ``hull_lo``/``hull_hi``
    (``None``: no hulls): entries sorted by ``(cell, distance)`` and reduced
    per cell run."""
    order = np.lexsort((distances, cells))
    cells, distances = cells[order], distances[order]
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    hulls = None
    if hull_lo is not None:
        order = np.argsort(hull_cells, kind="stable")
        runs = np.flatnonzero(np.diff(hull_cells[order], prepend=-1))
        lo = hull_lo[:, order]
        hi = lo if hull_hi is hull_lo else hull_hi[:, order]
        hulls = np.empty((2, len(lo), starts.size))
        if starts.size:
            hulls[0] = np.minimum.reduceat(lo, runs, axis=1)
            hulls[1] = np.maximum.reduceat(hi, runs, axis=1)
    return SummaryTable(
        cells=cells[starts],
        offsets=np.append(starts, cells.size),
        distances=distances,
        hulls=hulls,
    )


def build_partial_summary(
    partition_ids: np.ndarray,
    pivot_distances: np.ndarray,
    *,
    anchor_dists: np.ndarray | None = None,
) -> SummaryTable:
    """Build the summary table of one map split from its assignments.

    Parameters mirror the per-object output of the first job's mapper: the
    Voronoi cell of each object, its distance to the cell's pivot and,
    optionally, its ``(rows, A)`` distances to the partitioner's anchors,
    whose per-cell minimum and maximum become the cells' anchor hulls.
    """
    pids = np.asarray(partition_ids, dtype=np.int64)
    anchors = None if anchor_dists is None else np.asarray(anchor_dists).T
    return _reduced(pids, np.asarray(pivot_distances, dtype=np.float64), pids, anchors, anchors)


def merge_partial_summaries(partials: Iterable[SummaryTable]) -> SummaryTable:
    """Index merging: one table of every partial's entries.  The hulls are
    merged when every partial carries them."""
    partials = list(partials)
    if not partials:
        return build_partial_summary(np.empty(0, np.int64), np.empty(0))
    hulls = [table.hulls for table in partials]
    lo = hi = None
    if all(hull is not None for hull in hulls):
        lo, hi = np.concatenate(hulls, axis=2)
    return _reduced(
        np.concatenate([table.cells.repeat(table.counts) for table in partials]),
        np.concatenate([table.distances for table in partials]),
        np.concatenate([table.cells for table in partials]),
        lo,
        hi,
    )
