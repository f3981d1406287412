"""Voronoi diagram-based data partitioning (paper Section 2.3).

Given a pivot set ``P`` of size ``M``, every object is assigned to the
partition of its closest pivot, splitting the space into ``M`` "generalized
Voronoi cells".  Footnote 1 of the paper fixes the tie-break: when several
pivots are equally close, the object goes to the partition that currently has
the *smallest number of objects*.

The paper assigns an object with ``M`` distance computations; this module
finds the same pivot with fewer — an extension built from the paper's own
argument, the triangle inequality behind Theorems 1-5, applied to pivot-pivot
distances (the LAESA filter of Mico, Oncina & Vidal, 1994).  At most
``sqrt(M)`` *anchor* pivots, as many as the pivot matrix says pay, are
compared with every object, and each anchor ``b`` bounds every other pivot
from below, ``|o, p| >= | |o, b| - |b, p| |``, by arithmetic on distances
already in hand: an object's pivots are bounded by its nearest anchor ``a``
and the anchors nearest ``a``.  Two rounds compute distances: the pivot of
smallest bound, which tightens the best distance, then every pivot whose
bound is still within reach of it.  Only a prefix of the pivots sorted by
``|a, p|`` can be within reach (past it ``|a, p| - |o, a|`` alone is too
large), so objects of one nearest anchor are bounded in dense blocks.  A
skipped pivot is provably farther than the nearest one plus the tie
tolerance, so ids, distances and tie-breaks are those of the all-pairs
scan.  Every computed pair runs through the counted
:class:`~repro.core.distance.Metric` (computation selectivity); the bounds do
not, and a map task computes no pivot-pivot distance: the job ships them.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .distance import ChebyshevMetric, Metric
from .geometry import PRUNE_EPS, PRUNE_RTOL

__all__ = ["VoronoiPartitioner", "PartitionAssignment"]

#: relative slack used when detecting distance ties between pivots
_TIE_RTOL = 1e-12
#: footnote 1 counts the untied objects of a window before its tied ones
_TIE_WINDOW = 1024
#: with fewer pivots all are anchors (the all-pairs scan): an index cannot pay
_MIN_INDEXED_PIVOTS = 16
#: object-pivot pairs of the rows searched at once: bounds every dense block
_WINDOW_ELEMENTS = 1 << 22
#: bytes of one gathered coordinate array: bounds the memory of a round
_GATHER_BYTES = 1 << 17
#: anchors bounding each row's pivots: its nearest anchor and the anchors
#: nearest that one (more tighten the bound less than they cost to apply)
_BOUNDING_ANCHORS = 8
#: the pivots that stand in for objects when the anchor count is chosen
_STAND_INS = 64
#: rows bounded at once, out to the prefix of the last (the farthest reach)
_BLOCK_ROWS = 256
#: ``max_b | |o, b| - |b, p| |`` is the L-infinity distance between the
#: object's and the pivot's vectors of anchor distances (used uncounted)
_BOUND = ChebyshevMetric()


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

    __slots__ = ("partition_ids", "pivot_distances", "num_partitions")

    def __init__(
        self, partition_ids: np.ndarray, pivot_distances: np.ndarray, num_partitions: int
    ) -> None:
        self.partition_ids = np.asarray(partition_ids, dtype=np.int64)
        self.pivot_distances = np.asarray(pivot_distances, dtype=np.float64)
        if self.partition_ids.shape != self.pivot_distances.shape:
            raise ValueError("partition_ids and pivot_distances must align")
        self.num_partitions = int(num_partitions)

    def counts(self) -> np.ndarray:
        """Objects per cell, shape ``(num_partitions,)``."""
        return np.bincount(self.partition_ids, minlength=self.num_partitions)

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


def _index(pdm: np.ndarray, anchors: np.ndarray, lists: np.ndarray) -> tuple:
    """The :meth:`~VoronoiPartitioner.anchor_index` of ``anchors``, whose
    ``lists`` hold every pivot, nearest first."""
    others = lists[~np.isin(lists, anchors)].reshape(anchors.size, -1)
    return anchors, others, pdm[anchors]


def _cheapest_index(pdm: np.ndarray, order: np.ndarray, lists: np.ndarray) -> tuple:
    """The :func:`_index` of the first ``A`` of ``order`` that cost the fewest
    pairs per object: ``A`` plus what :func:`_search` computes for
    stand-ins, the first ``_STAND_INS`` pivots by id outside ``order`` (under
    random selection a uniform draw from R), each left out of its own search.
    Their distances are read from ``pdm``: choosing counts no pair."""
    standins = np.setdiff1d(np.arange(pdm.shape[0]), order)[:_STAND_INS]
    fewest = np.inf
    for count in range(1, order.size + 1):
        if count * standins.size >= fewest:  # the anchor distances alone
            break
        index = _index(pdm, order[:count], lists[:count])
        anchor_d = pdm[np.ix_(standins, index[0])]
        all_d = _search(index, anchor_d, lambda rows, ids: pdm[standins[rows], ids], standins)[2]
        pairs = count * standins.size + np.isfinite(all_d[:, count:]).sum()
        if pairs < fewest:
            fewest, chosen = pairs, index
    return chosen


def _search(index: tuple, anchor_d: np.ndarray, compute, exclude=None) -> tuple:
    """The two rounds for rows at ``anchor_d`` from the anchors of ``index``;
    ``compute(rows, pivot_ids)`` returns distances, and ``exclude`` names a
    pivot per row left out of its search.  Returns ``(order, near, all_d)``:
    the rows sorted by nearest anchor ``near``, with ``all_d`` as below."""
    anchors, others, anchor_rows = index
    count = anchors.size
    near = anchor_d.argmin(axis=1)
    best = anchor_d.min(axis=1)
    # a pivot bounded above ``reach(best)`` cannot tie the best: the slack
    # covers the tie tolerance and the rounding of the bound, which grows
    # with the anchor distances it is made of
    slack = anchor_d.max(axis=1) * PRUNE_RTOL + PRUNE_EPS

    def reach(best: np.ndarray) -> np.ndarray:
        return best * (1.0 + PRUNE_RTOL) + slack

    # ``a`` alone bounds ``p_j`` by ``|a, p_j| - best``: past a prefix of
    # its list no pivot is within reach, so only the prefix is bounded
    cut = (best + reach(best)) * (1.0 + PRUNE_RTOL)
    # rows sorted by nearest anchor, then by cut (``reach`` reads the sorted
    # ``slack`` from here on): a block of one anchor's rows is bounded out to
    # its last row's prefix
    order = np.lexsort((cut, near))
    anchor_d, near, best, slack, cut = (x[order] for x in (anchor_d, near, best, slack, cut))
    edges = np.arange(0, near.size, _BLOCK_ROWS)
    edges = np.union1d(edges, np.searchsorted(near, np.arange(count + 1)))
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    listed = np.take_along_axis(anchor_rows, others, 1)
    widths = [np.searchsorted(listed[near[b.start]], cut[b.stop - 1], side="right") for b in blocks]
    # column ``count + j`` of a row is pivot ``others[near, j]``: its bound
    # until the rounds have run, then its distance if one was computed
    all_d = np.full((near.size, count + max(widths, default=0)), np.inf)
    all_d[:, :count] = anchor_d
    bound, found = all_d[:, count:], []

    def computed(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        bound[rows, cols] = np.inf
        dists = compute(order[rows], others[near[rows], cols])
        found.append((rows, cols, dists))
        return dists

    if bound.size:
        # per anchor ``a`` its bounding anchors: ``a`` first (before any
        # anchor coincident with it), then the nearest
        gaps = anchor_rows[:, anchors] - np.eye(count)
        bounding = np.argsort(gaps, axis=1, kind="stable")[:, :_BOUNDING_ANCHORS]
        for rows, width in zip(blocks, widths):
            if width:
                a = near[rows.start]
                prefix = anchor_rows[bounding[a, :, None], others[a, :width]]
                bound[rows, :width] = _BOUND._cross(anchor_d[rows, bounding[a]], prefix.T)
        if exclude is not None:
            bound[others[near, : bound.shape[1]] == exclude[order, None]] = np.inf
        # round 1: a row's smallest bound, if within reach, tightens ``best``
        # (the first of equals; ``argmin`` would copy the strided view)
        low = bound.min(axis=1)
        cols = (bound == low[:, None]).argmax(axis=1)
        rows = np.flatnonzero(low <= reach(best))
        best[rows] = np.minimum(best[rows], computed(rows, cols[rows]))
        # round 2: every other pivot still within reach
        computed(*np.divmod(np.flatnonzero(bound <= reach(best)[:, None]), bound.shape[1]))
        bound[:] = np.inf
        for rows, cols, dists in found:
            bound[rows, cols] = dists
    return order, near, all_d


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
    distance_matrix:
        The pivots' :meth:`pivot_distance_matrix`, when pivot selection
        already computed it; computed here on first use when absent.
    """

    def __init__(
        self,
        pivots: np.ndarray,
        metric: Metric,
        anchors: tuple | None = None,
        distance_matrix: np.ndarray | None = None,
    ) -> None:
        pivots = np.asarray(pivots, dtype=np.float64)
        if pivots.ndim != 2 or pivots.shape[0] == 0:
            raise ValueError(f"pivots must be a non-empty 2-d array, got shape {pivots.shape}")
        self.pivots = pivots
        self.metric = metric
        self._anchors = anchors
        self._pdm = distance_matrix

    @property
    def num_partitions(self) -> int:
        """Number of pivots ``M`` — one Voronoi cell each."""
        return self.pivots.shape[0]

    def anchor_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(anchor ids, per anchor the other pivots' ids nearest first, the
        anchors' rows of the pivot distance matrix)``: the first of
        ``ceil(sqrt(M))`` pivots taken farthest-first from that matrix, as
        many as :func:`_cheapest_index` chooses; below ``_MIN_INDEXED_PIVOTS``
        every pivot is an anchor and no distance is needed."""
        if self._anchors is None:
            ids = np.arange(self.num_partitions)
            if ids.size < _MIN_INDEXED_PIVOTS:
                self._anchors = (ids, np.empty((ids.size, 0), np.int64), np.empty((ids.size, 0)))
            else:
                pdm = self.pivot_distance_matrix()
                order = _farthest_first(pdm, int(np.ceil(np.sqrt(ids.size))))
                lists = np.argsort(pdm[order], axis=1, kind="stable")
                self._anchors = _cheapest_index(pdm, order, lists)
        return self._anchors

    def assign_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assign each row of ``points`` to its closest pivot.

        Ties are broken toward the cell with the fewest objects *so far*
        (running counts over this call).

        Returns ``(partition_ids, pivot_distances, anchor_distances)``, the
        last ``(rows, A)``: each row's distances to the :meth:`anchor_index`
        anchors, in their order, which the search computed anyway.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        pids = np.empty(points.shape[0], dtype=np.int64)
        dists = np.empty(points.shape[0], dtype=np.float64)
        anchor_dists = np.empty((points.shape[0], self.anchor_index()[0].size))
        ties: dict[int, np.ndarray] = {}
        step = max(_TIE_WINDOW, _WINDOW_ELEMENTS // self.num_partitions)
        for start in range(0, pids.size, step):
            window = slice(start, start + step)
            self._nearest(
                points[window], pids[window], dists[window], anchor_dists[window], ties, start
            )
        if ties:
            self._break_ties(pids, ties)
        return pids, dists, anchor_dists

    def _nearest(self, points, out_pids, out_dists, out_anchor, ties: dict, offset: int) -> None:
        """The nearest pivot of every row, into the ``out`` views; a row with
        several within the tie tolerance also records their ids in ``ties``."""
        anchors, others, _ = index = self.anchor_index()
        step = max(1, _GATHER_BYTES // points.itemsize // points.shape[1])

        def compute(rows: np.ndarray, pivot_ids: np.ndarray) -> np.ndarray:
            """The counted distances of these pairs, gathered a chunk at a time."""
            dists = np.empty(rows.size)
            for at in range(0, rows.size, step):
                chunk = slice(at, at + step)
                dists[chunk] = self.metric.pair_distances(
                    points.take(rows[chunk], 0), self.pivots.take(pivot_ids[chunk], 0)
                )
            return dists

        out_anchor[:] = anchor_d = self.metric.cross_distances(points, self.pivots[anchors])
        order, near, all_d = _search(index, anchor_d, compute)
        count = anchors.size
        listed = others[:, : all_d.shape[1] - count]
        ids = np.hstack([np.broadcast_to(anchors, (count, count)), listed])
        out_dists[order] = best = all_d.min(axis=1)
        out_pids[order] = ids[near, all_d.argmin(axis=1)]
        close = all_d <= (best + _TIE_RTOL * np.maximum(best, 1.0))[:, None]
        for row in np.flatnonzero(close.sum(axis=1) > 1):
            ties[offset + int(order[row])] = np.sort(ids[near[row]][close[row]])

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
        pids, dists, _ = self.assign_points(dataset.points)
        return PartitionAssignment(pids, dists, self.num_partitions)

    def pivot_distance_matrix(self) -> np.ndarray:
        """The ``M x M`` pivot-to-pivot distance matrix ``|p_i, p_j|``.

        Counted, once per unordered pair: the paper includes pivot pairs in
        computation selectivity.
        """
        if self._pdm is None:
            self._pdm = self.metric.pairwise_matrix(self.pivots)
        return self._pdm
