"""Voronoi diagram-based data partitioning (paper Section 2.3).

Given a pivot set ``P`` of size ``M``, every object is assigned to the
partition of its closest pivot, splitting the space into ``M`` "generalized
Voronoi cells".  Footnote 1 of the paper fixes the tie-break: when several
pivots are equally close, the object goes to the partition that currently has
the *smallest number of objects*.

The paper assigns an object with ``M`` distance computations; this module
finds the same pivot with fewer — an extension built from the paper's own
argument, the triangle inequality behind Theorems 1-5, applied to pivot-pivot
distances.  About ``sqrt(M)`` *anchor* pivots are compared with every object;
an object whose nearest anchor ``a`` lies at distance ``u`` can only be as
near to a pivot with ``|a, p_j| <= 2u`` (else ``|o, p_j| >= |a, p_j| - u >
u``) — a *prefix* of the other pivots sorted by ``|a, p_j|``.  Objects are
grouped by anchor and binned by prefix length, so the search is a handful of
dense distance blocks; a skipped pivot is provably farther than the nearest
one plus the tie tolerance, so ids, distances and tie-breaks are those of the
all-pairs scan.  Every computed pair runs through the counted
:class:`~repro.core.distance.Metric`: it is part of computation selectivity.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .distance import Metric
from .geometry import PRUNE_EPS

__all__ = ["VoronoiPartitioner", "PartitionAssignment"]

#: relative slack used when detecting distance ties between pivots
_TIE_RTOL = 1e-12
#: relative part of the pruning slack beside ``PRUNE_EPS``: the tie tolerance
#: plus the rounding of the triangle bound's distances, at any coordinate scale
_PRUNE_RTOL = 1e-9
#: footnote 1 counts the untied objects of a window before its tied ones
_TIE_WINDOW = 1024
#: with fewer pivots all are anchors (the all-pairs scan): an index cannot pay
_MIN_INDEXED_PIVOTS = 16
#: object-pivot pairs of the rows searched at once: bounds every dense block
_WINDOW_ELEMENTS = 1 << 22
#: rows are cut into at most ``2 ** _CUT_DEPTH`` bands of prefix length, each
#: cut saving ``_MIN_CUT_SAVING`` pairs per block it adds — about a block's cost
_CUT_DEPTH, _MIN_CUT_SAVING = 3, 1024


class PartitionAssignment:
    """The result of Voronoi-partitioning one dataset.

    Attributes
    ----------
    partition_ids:
        ``(m,)`` int array — index of the closest pivot per object row.
    pivot_distances:
        ``(m,)`` float array — distance from each object to its pivot
        (``k1.dist`` in Algorithm 3; reused by every pruning rule).
    num_partitions:
        Total number of pivots ``M`` (cells may be empty).
    """

    __slots__ = ("partition_ids", "pivot_distances", "num_partitions", "_rows_by_pid")

    def __init__(
        self, partition_ids: np.ndarray, pivot_distances: np.ndarray, num_partitions: int
    ) -> None:
        self.partition_ids = np.asarray(partition_ids, dtype=np.int64)
        self.pivot_distances = np.asarray(pivot_distances, dtype=np.float64)
        if self.partition_ids.shape != self.pivot_distances.shape:
            raise ValueError("partition_ids and pivot_distances must align")
        self.num_partitions = int(num_partitions)
        self._rows_by_pid: dict[int, np.ndarray] | None = None

    def rows_of(self, partition_id: int) -> np.ndarray:
        """Positional rows of the objects in the given cell (possibly empty)."""
        if self._rows_by_pid is None:
            order = np.argsort(self.partition_ids, kind="stable")
            sorted_pids = self.partition_ids[order]
            boundaries = np.searchsorted(sorted_pids, np.arange(self.num_partitions + 1))
            self._rows_by_pid = {
                pid: order[boundaries[pid] : boundaries[pid + 1]]
                for pid in range(self.num_partitions)
            }
        return self._rows_by_pid[int(partition_id)]

    def counts(self) -> np.ndarray:
        """Objects per cell, shape ``(num_partitions,)``."""
        return np.bincount(self.partition_ids, minlength=self.num_partitions)

    def non_empty_partitions(self) -> list[int]:
        """Ids of cells that contain at least one object."""
        return [int(p) for p in np.flatnonzero(self.counts() > 0)]

    def __len__(self) -> int:
        return self.partition_ids.shape[0]


def _farthest_first(pdm: np.ndarray, count: int) -> np.ndarray:
    """``count`` distinct pivots, each the farthest from those chosen before."""
    chosen = [0]
    nearest = pdm[0].copy()
    while len(chosen) < count:
        nearest[chosen[-1]] = -1.0  # never again, coincident pivots included
        chosen.append(int(nearest.argmax()))
        np.minimum(nearest, pdm[chosen[-1]], out=nearest)
    return np.array(chosen)


def _cut(lengths: np.ndarray, lo: int, hi: int, depth: int, worth: int) -> list[tuple[int, int]]:
    """Bands of the ascending prefix lengths ``lengths[lo:hi]``: a band's rows
    are searched to (at most) its longest prefix, so a cut spares the rows
    before it the difference; it is made where that spares the most, if that
    is ``worth`` pairs."""
    if depth and hi - lo > 1:
        saved = np.arange(1, hi - lo) * (lengths[hi - 1] - lengths[lo : hi - 1])
        mid = lo + int(saved.argmax()) + 1
        if saved[mid - lo - 1] >= worth:
            left = _cut(lengths, lo, mid, depth - 1, worth)
            return left + _cut(lengths, mid, hi, depth - 1, worth)
    return [(lo, hi)] if hi > lo else []


class VoronoiPartitioner:
    """Assigns objects to generalized Voronoi cells of a pivot set.

    Parameters
    ----------
    pivots:
        ``(M, n)`` array of pivot coordinates.  Pivots need not belong to the
        dataset being partitioned (they are selected from ``R`` but partition
        ``S`` as well).
    metric:
        The counted distance metric shared by the whole join pipeline.
    anchors:
        The :meth:`anchor_index` of another partitioner over the same pivots
        (the master's, shipped in the job cache); built here when absent.
    """

    def __init__(self, pivots: np.ndarray, metric: Metric, anchors: tuple | None = None) -> None:
        pivots = np.asarray(pivots, dtype=np.float64)
        if pivots.ndim != 2 or pivots.shape[0] == 0:
            raise ValueError(f"pivots must be a non-empty 2-d array, got shape {pivots.shape}")
        self.pivots = pivots
        self.metric = metric
        self._anchors = anchors
        self._pdm: np.ndarray | None = None

    @property
    def num_partitions(self) -> int:
        """Number of pivots ``M`` — one Voronoi cell each."""
        return self.pivots.shape[0]

    def anchor_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(anchor ids, per anchor the other pivots' ids nearest first, their
        distances)``: about ``sqrt(M)`` anchors chosen farthest-first from the
        pivot distance matrix; below ``_MIN_INDEXED_PIVOTS`` every pivot is an
        anchor and no distance is needed."""
        if self._anchors is None:
            ids = others = np.arange(self.num_partitions)
            if ids.size < _MIN_INDEXED_PIVOTS:
                others, rows = others[:0], np.empty((ids.size, 0))
            else:
                rows = self.pivot_distance_matrix()
                ids = _farthest_first(rows, int(np.ceil(np.sqrt(ids.size))))
                others, rows = np.setdiff1d(others, ids), rows[ids]
            others = others[np.argsort(rows[:, others], axis=1, kind="stable")]
            self._anchors = (ids, others, np.take_along_axis(rows, others, axis=1))
        return self._anchors

    def assign_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assign each row of ``points`` to its closest pivot.

        Ties are broken toward the cell with the fewest objects *so far*
        (running counts over this call).

        Returns ``(partition_ids, pivot_distances)``.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        pids = np.empty(points.shape[0], dtype=np.int64)
        dists = np.empty(points.shape[0], dtype=np.float64)
        ties: dict[int, np.ndarray] = {}
        step = max(_TIE_WINDOW, _WINDOW_ELEMENTS // self.num_partitions)
        for start in range(0, pids.size, step):
            window = slice(start, start + step)
            self._nearest(points[window], pids[window], dists[window], ties, start)
        if ties:
            self._break_ties(pids, ties)
        return pids, dists

    def _nearest(self, points, out_pids, out_dists, ties: dict, offset: int) -> None:
        """The nearest pivot of every row, into the ``out`` views; a row with
        several within the tie tolerance also records their ids in ``ties``."""
        anchors, others, other_d = self.anchor_index()
        count = anchors.size
        # column ``j`` of a row whose nearest anchor is ``a`` is pivot ``ids[a, j]``
        ids = np.concatenate([np.broadcast_to(anchors, (count, count)), others], axis=1)
        anchor_d = self.metric.cross_distances(points, self.pivots[anchors])
        near = anchor_d.argmin(axis=1)
        # a pivot farther than this from the nearest anchor cannot tie the best
        reach = anchor_d.min(axis=1) * (2.0 + _PRUNE_RTOL) + PRUNE_EPS
        lengths = np.zeros(near.size, dtype=np.int64)
        for a in range(count if others.size else 0):
            mine = near == a
            lengths[mine] = np.searchsorted(other_d[a], reach[mine], side="right")

        def settle(rows: np.ndarray, all_d: np.ndarray) -> None:
            best = out_dists[rows] = all_d.min(axis=1)
            out_pids[rows] = ids[near[rows], all_d.argmin(axis=1)]
            close = all_d <= (best + _TIE_RTOL * np.maximum(best, 1.0))[:, None]
            for at in np.flatnonzero(close.sum(axis=1) > 1):
                tied = ids[near[rows[at]], : close.shape[1]][close[at]]
                ties[offset + int(rows[at])] = np.sort(tied)

        rows = np.flatnonzero(lengths == 0)  # the anchors alone decide these
        settle(rows, anchor_d[rows])
        # the others in bands of similar prefix length: the rows of one anchor
        # in one band are one dense block, a slice of the band's matrix (a cut
        # adds a block per anchor, so it must save that many times more)
        rank = np.flatnonzero(lengths)
        rank = rank[np.argsort(lengths[rank], kind="stable")]
        for lo, hi in _cut(lengths[rank], 0, rank.size, _CUT_DEPTH, _MIN_CUT_SAVING * count):
            rows = rank[lo:hi][np.argsort(near[rank[lo:hi]], kind="stable")]
            all_d = np.full((rows.size, count + lengths[rank[hi - 1]]), np.inf)
            all_d[:, :count] = anchor_d[rows]
            starts = np.searchsorted(near[rows], np.arange(count + 1))
            for a in np.flatnonzero(np.diff(starts)):
                block = slice(starts[a], starts[a + 1])
                prefix = others[a, : lengths[rows[block]].max()]
                all_d[block, count : count + prefix.size] = self.metric.cross_distances(
                    points[rows[block]], self.pivots[prefix]
                )
            settle(rows, all_d)

    def _break_ties(self, pids: np.ndarray, ties: dict[int, np.ndarray]) -> None:
        """Footnote 1: a tied object goes to the smallest of its tied cells, in
        row order so earlier assignments influence later ones, as a streaming
        mapper would; a window's untied rows are counted before its tied ones."""
        counts = np.zeros(self.num_partitions, dtype=np.int64)
        untied = np.ones(pids.size, dtype=bool)
        untied[list(ties)] = False
        counted = 0
        for row in sorted(ties):
            window_end = (row // _TIE_WINDOW + 1) * _TIE_WINDOW
            if window_end > counted:
                window = slice(counted, window_end)
                counts += np.bincount(pids[window][untied[window]], minlength=counts.size)
                counted = window_end
            pids[row] = ties[row][np.argmin(counts[ties[row]])]
            counts[pids[row]] += 1

    def assign(self, dataset: Dataset) -> PartitionAssignment:
        """Partition a whole dataset in one pass."""
        pids, dists = self.assign_points(dataset.points)
        return PartitionAssignment(pids, dists, self.num_partitions)

    def pivot_distance_matrix(self) -> np.ndarray:
        """The ``M x M`` pivot-to-pivot distance matrix ``|p_i, p_j|``.

        Counted, once: the paper includes pivot pairs in computation
        selectivity.
        """
        if self._pdm is None:
            self._pdm = self.metric.cross_distances(self.pivots, self.pivots)
        return self._pdm
