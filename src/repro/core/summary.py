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
the partials' runs) are concatenated, sorted by ``(cell, distance)`` and
reduced per cell run, so counts add, bounds take the minimum and maximum and
each cell's distances come out ascending; the hulls are folded into their
cells' columns a partial at a time, never stacked.
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
    hull_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None,
) -> SummaryTable:
    """The table of entries ``(cells, distances)``, sorted by ``(cell,
    distance)`` and reduced per cell run, with the hulls of ``hull_parts``
    (``None``: no hulls) — each part's distinct cells and their ``(A,
    cells)`` extremes ``lo``/``hi``, folded into the cells' columns a part
    at a time, so no stacked copy of the parts is made."""
    order = np.lexsort((distances, cells))
    cells, distances = cells[order], distances[order]
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    hulls = None
    if hull_parts is not None:
        hulls = np.empty((2, len(hull_parts[0][1]), starts.size))
        low, high = hulls
        low[:], high[:] = np.inf, -np.inf
        for part_cells, lo, hi in hull_parts:
            columns = np.searchsorted(cells[starts], part_cells)
            low[:, columns] = np.minimum(low[:, columns], lo)
            high[:, columns] = np.maximum(high[:, columns], hi)
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
    hulls = None
    if anchor_dists is not None:
        order = np.argsort(pids, kind="stable")
        runs = np.flatnonzero(np.diff(pids[order], prepend=-1))
        anchors = np.asarray(anchor_dists).T[:, order]
        extremes = (ufunc.reduceat(anchors, runs, axis=1) for ufunc in (np.minimum, np.maximum))
        hulls = [(pids[order[runs]], *extremes)]
    return _reduced(pids, np.asarray(pivot_distances, dtype=np.float64), hulls)


def merge_partial_summaries(partials: Iterable[SummaryTable]) -> SummaryTable:
    """Index merging: one table of every partial's entries.  The hulls are
    merged when every partial carries them."""
    partials = list(partials)
    if not partials:
        return build_partial_summary(np.empty(0, np.int64), np.empty(0))
    hulls = [(table.cells, *table.hulls) for table in partials if table.hulls is not None]
    return _reduced(
        np.concatenate([table.cells.repeat(table.counts) for table in partials]),
        np.concatenate([table.distances for table in partials]),
        hulls if len(hulls) == len(partials) else None,
    )
