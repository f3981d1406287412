"""Exact in-memory k-nearest-neighbor primitives.

These are the reference kernels: the naive ``O(|R| * |S|)`` join the paper
uses as its correctness definition (Definition 1/2), plus the small running
"k-best list" used by every reducer-side kernel.

Tie-breaking: whenever two candidates are equidistant, the one with the
smaller object id wins.  All algorithms in this library share that rule, so
exact joins are comparable id-by-id on tie-free data and distance-by-distance
always.

Selection is ``np.argpartition``-based: a linear-time partition finds the
k-th smallest distance, and only the (usually tiny) slice of candidates at
or below that cutoff is lexsorted for the (distance, id) order — bit-identical
to a full lexsort, without its ``O(n log n)`` cost per batch.  The seed
concatenate-and-full-lexsort implementation survives as
:class:`ReferenceKBestList`, the oracle the property tests compare against.
"""

from __future__ import annotations

import numpy as np

from .distance import Metric

__all__ = [
    "KBestList",
    "ReferenceKBestList",
    "select_k_smallest",
    "knn_of_point",
    "brute_force_knn_join",
]


def select_k_smallest(dists: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest ``(distance, id)`` candidates, in order.

    Exactly ``np.lexsort((ids, dists))[:k]``, computed with an
    ``argpartition`` prefilter: every candidate strictly below the k-th
    smallest distance must be kept, and candidates *at* the cutoff distance
    are ranked by id — so lexsorting the ``dists <= cutoff`` subset (a
    superset of the answer) reproduces the full sort's first k positions
    bit for bit, ties and duplicates included.
    """
    if dists.size <= k:
        return np.lexsort((ids, dists))
    cutoff = dists[np.argpartition(dists, k - 1)[k - 1]]
    keep = np.flatnonzero(dists <= cutoff)
    order = np.lexsort((ids[keep], dists[keep]))[:k]
    return keep[order]


class KBestList:
    """A running list of the k best (distance, id) candidates for one query.

    Candidates are fed in batches (numpy arrays); the list keeps the k
    smallest under the (distance, id) order and exposes the current kNN
    radius ``theta`` (``+inf`` until k candidates have been seen, per the
    usual branch-and-bound convention — callers seed ``theta`` with their own
    initial bound, e.g. Equation 6's ``theta_i``).
    """

    __slots__ = ("k", "dists", "ids")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.dists = np.empty(0, dtype=np.float64)
        self.ids = np.empty(0, dtype=np.int64)

    def update(self, dists: np.ndarray, ids: np.ndarray) -> None:
        """Offer a batch of candidates."""
        if dists.shape != ids.shape:
            raise ValueError("dists and ids must align")
        if dists.size == 0:
            return
        if self.dists.size:
            all_d = np.concatenate([self.dists, dists])
            all_i = np.concatenate([self.ids, ids])
        else:
            all_d = np.asarray(dists, dtype=np.float64)
            all_i = np.asarray(ids, dtype=np.int64)
        selected = select_k_smallest(all_d, all_i, self.k)
        # fancy indexing copies, so the kept arrays never alias caller slices
        self.dists = all_d[selected]
        self.ids = all_i[selected]

    @property
    def theta(self) -> float:
        """Current kNN radius: the k-th best distance, ``+inf`` if unfilled."""
        if self.dists.size < self.k:
            return np.inf
        return float(self.dists[-1])

    def is_full(self) -> bool:
        """True once k candidates have been collected."""
        return self.dists.size >= self.k

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, dists)`` sorted ascending by (distance, id)."""
        return self.ids.copy(), self.dists.copy()


class ReferenceKBestList:
    """The seed concatenate+full-lexsort k-best list, kept as the oracle.

    Interface-identical to :class:`KBestList`; every update re-sorts the
    whole candidate set.  Used by the property tests and the per-record
    reference kernel so the fast path always has a bit-identical baseline
    to be checked (and benchmarked) against.
    """

    __slots__ = ("k", "dists", "ids")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.dists = np.empty(0, dtype=np.float64)
        self.ids = np.empty(0, dtype=np.int64)

    def update(self, dists: np.ndarray, ids: np.ndarray) -> None:
        """Offer a batch of candidates (seed implementation)."""
        if dists.shape != ids.shape:
            raise ValueError("dists and ids must align")
        if dists.size == 0:
            return
        all_d = np.concatenate([self.dists, dists])
        all_i = np.concatenate([self.ids, ids])
        order = np.lexsort((all_i, all_d))[: self.k]
        self.dists = all_d[order]
        self.ids = all_i[order]

    @property
    def theta(self) -> float:
        if self.dists.size < self.k:
            return np.inf
        return float(self.dists[-1])

    def is_full(self) -> bool:
        return self.dists.size >= self.k

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.ids.copy(), self.dists.copy()


def knn_of_point(
    metric: Metric,
    query: np.ndarray,
    points: np.ndarray,
    ids: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN of one query over a point block (counted distances).

    Returns ``(neighbor_ids, distances)`` of length ``min(k, len(points))``,
    ordered by (distance, id).
    """
    ids = np.asarray(ids)
    dists = metric.distances(query, points)
    selected = select_k_smallest(dists, ids, k)
    return ids[selected], dists[selected]


def brute_force_knn_join(
    metric: Metric,
    r_points: np.ndarray,
    r_ids: np.ndarray,
    s_points: np.ndarray,
    s_ids: np.ndarray,
    k: int,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The naive kNN join: scan all of ``S`` for every ``r`` (Definition 2).

    Returns ``{r_id: (neighbor_ids, distances)}``.  This is the ground truth
    every distributed algorithm is tested against.
    """
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    r_points = np.atleast_2d(r_points)
    s_ids = np.asarray(s_ids)
    for row in range(r_points.shape[0]):
        out[int(r_ids[row])] = knn_of_point(metric, r_points[row], s_points, s_ids, k)
    return out
