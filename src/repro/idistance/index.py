"""The iDistance index (Jagadish et al. [9]; Yu et al. [20]).

iDistance is the pivot-based one-dimensional mapping the paper's Theorem 2
descends from: objects are Voronoi-partitioned around pivots and stored in a
B+-tree under the key ``partition_id * C + |o, p_i|``.  A kNN query runs an
*expanding ring search*: with a growing radius ``r``, every partition whose
sphere intersects the query ball contributes the B+-tree key range

    [i*C + max(L_i, d_i - r),  i*C + min(U_i, d_i + r)]

(the Theorem 2 ring!), candidates are verified by true distance, and the
search stops once the k-th best distance is within the certified radius.

In this repository the index serves as an alternative reducer-side kernel —
the iJoin [19] baseline of :mod:`repro.joins.ijoin` — and as a standalone
centralized kNN index.
"""

from __future__ import annotations

import numpy as np

from repro.btree import BPlusTree
from repro.core.distance import Metric
from repro.core.knn import KBestList
from repro.core.partition import VoronoiPartitioner

__all__ = ["IDistanceIndex"]


class IDistanceIndex:
    """Pivot-mapped B+-tree index with expanding ring kNN search.

    Parameters
    ----------
    points, ids:
        The indexed objects.
    pivots:
        Reference points (``(M, n)``); typically a small sample of the data.
    metric:
        Counted metric — query-to-pivot and candidate distances count toward
        selectivity, B+-tree traversal does not.
    order:
        B+-tree node order.
    """

    def __init__(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        pivots: np.ndarray,
        metric: Metric,
        order: int = 64,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        ids = np.asarray(ids, dtype=np.int64)
        if points.shape[0] != ids.shape[0]:
            raise ValueError("points and ids must align")
        self.metric = metric
        self.points = points
        self.ids = ids
        self._partitioner = VoronoiPartitioner(pivots, metric)
        pids, dists, _ = self._partitioner.assign_points(points)
        self._pids = pids
        self._dists = dists
        self.num_partitions = self._partitioner.num_partitions
        # per-partition L_i / U_i (empty cells get an empty ring)
        self._lower = np.full(self.num_partitions, np.inf)
        self._upper = np.full(self.num_partitions, -np.inf)
        for pid in range(self.num_partitions):
            mask = pids == pid
            if mask.any():
                self._lower[pid] = dists[mask].min()
                self._upper[pid] = dists[mask].max()
        # the iDistance constant C: larger than any in-partition distance,
        # so key ranges of different partitions never overlap
        max_radius = float(dists.max()) if dists.size else 1.0
        self.constant = max_radius * 2.0 + 1.0
        self._tree = BPlusTree.bulk_load(
            [
                (pid * self.constant + dist, row)
                for row, (pid, dist) in enumerate(zip(pids.tolist(), dists.tolist()))
            ],
            order=order,
        )

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def pivots(self) -> np.ndarray:
        """The reference points of the one-dimensional mapping."""
        return self._partitioner.pivots

    def knn(
        self, query: np.ndarray, k: int, initial_radius: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expanding ring kNN search; returns ``(ids, dists)``.

        ``initial_radius`` seeds the first ring (defaults to a fraction of
        the largest partition radius); the radius doubles until the k-th
        candidate distance is certified.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query = np.asarray(query, dtype=np.float64)
        size = len(self)
        if size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        k = min(k, size)
        # distances from the query to every pivot (counted object pairs)
        query_pivot = self.metric.distances(query, self.pivots)
        max_upper = float(self._upper[np.isfinite(self._upper)].max())
        radius = initial_radius if initial_radius else max(max_upper / 8.0, 1e-12)
        kbest = KBestList(k)
        # per-partition key range already scanned (inclusive); inverted
        # sentinel means untouched.  Ranges are kept in key space: one ULP
        # past a scanned *distance* can vanish once ``pid * C`` is added, and
        # the rows on the ring's old edge would be offered a second time
        scanned: list[tuple[float, float]] = [(np.inf, -np.inf)] * self.num_partitions
        while True:
            for pid in range(self.num_partitions):
                if not np.isfinite(self._lower[pid]):
                    continue  # empty cell
                d_i = float(query_pivot[pid])
                if d_i - radius > self._upper[pid]:
                    continue  # query ball misses the partition sphere
                lo = max(self._lower[pid], d_i - radius)
                hi = min(self._upper[pid], d_i + radius)
                if lo > hi:
                    continue
                key_lo, key_hi = pid * self.constant + lo, pid * self.constant + hi
                seen_lo, seen_hi = scanned[pid]
                if seen_lo > seen_hi:  # nothing scanned yet
                    segments = [(key_lo, key_hi)]
                else:  # the ring only grows: at most one new piece per side
                    segments = [
                        (key_lo, np.nextafter(seen_lo, -np.inf)),
                        (np.nextafter(seen_hi, np.inf), key_hi),
                    ]
                for seg_lo, seg_hi in segments:
                    rows = [value for _, value in self._tree.range_scan(seg_lo, seg_hi)]
                    if rows:
                        rows = np.asarray(rows, dtype=np.int64)
                        dists = self.metric.distances(query, self.points[rows])
                        kbest.update(dists, self.ids[rows])
                scanned[pid] = (min(key_lo, seen_lo), max(key_hi, seen_hi))
            if kbest.is_full() and kbest.theta <= radius:
                break  # the k-th neighbor is inside the certified ball
            if radius > max_upper + float(query_pivot.max()):
                break  # ball covers everything reachable
            radius *= 2.0
        return kbest.as_arrays()

    def range_search(self, query: np.ndarray, threshold: float) -> list[int]:
        """Definition 3 range selection: all ids within ``threshold``.

        One ring pass per partition at the final radius — the non-iterative
        special case of the kNN search.
        """
        query = np.asarray(query, dtype=np.float64)
        query_pivot = self.metric.distances(query, self.pivots)
        out: list[int] = []
        for pid in range(self.num_partitions):
            if not np.isfinite(self._lower[pid]):
                continue
            d_i = float(query_pivot[pid])
            if d_i - threshold > self._upper[pid]:
                continue
            lo = max(self._lower[pid], d_i - threshold)
            hi = min(self._upper[pid], d_i + threshold)
            if lo > hi:
                continue
            rows = [
                value
                for _, value in self._tree.range_scan(
                    pid * self.constant + lo, pid * self.constant + hi
                )
            ]
            if rows:
                rows = np.asarray(rows, dtype=np.int64)
                dists = self.metric.distances(query, self.points[rows])
                out.extend(int(i) for i in self.ids[rows[dists <= threshold + 1e-12]])
        return sorted(out)
