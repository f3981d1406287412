"""The all-pairs Voronoi assignment, kept as the test-side reference.

A copy of ``VoronoiPartitioner.assign_points`` as the library shipped it
before the nearest pivot was searched with the pivot–pivot triangle bound:
every object is compared with every pivot, 1 024 rows at a time, and
footnote 1 breaks ties toward the cell with the fewest objects so far.
``src/`` holds only the pruned search; ``tests/test_voronoi_reference.py``
holds it equal to this one — partition ids and the bytes of the pivot
distances — and holds its pair counter to the rule stated there.
"""

from __future__ import annotations

import numpy as np

from repro.core.distance import Metric

#: relative slack used when detecting distance ties between pivots
_TIE_RTOL = 1e-12


def assign_points_all_pairs(
    pivots: np.ndarray, metric: Metric, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(partition_ids, pivot_distances)`` from ``|points| · M`` counted pairs."""
    pivots = np.asarray(pivots, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    num_partitions = pivots.shape[0]
    m = points.shape[0]
    pids = np.empty(m, dtype=np.int64)
    dists = np.empty(m, dtype=np.float64)
    counts = np.zeros(num_partitions, dtype=np.int64)
    block = 1024
    for start in range(0, m, block):
        chunk = points[start : start + block]
        all_d = metric.cross_distances(chunk, pivots)
        best = all_d.min(axis=1)
        nearest = all_d.argmin(axis=1)
        tol = _TIE_RTOL * np.maximum(best, 1.0)
        tie_rows = np.flatnonzero((all_d <= (best + tol)[:, None]).sum(axis=1) > 1)
        pids[start : start + chunk.shape[0]] = nearest
        dists[start : start + chunk.shape[0]] = best
        if tie_rows.size:
            # footnote 1: a tied object goes to the smallest partition.
            # Resolve sequentially so earlier assignments influence later
            # ones, exactly as a streaming mapper would.
            counts += np.bincount(np.delete(nearest, tie_rows), minlength=num_partitions)
            for row in tie_rows:
                tied = np.flatnonzero(all_d[row] <= best[row] + tol[row])
                pid = int(tied[np.argmin(counts[tied])])
                pids[start + row] = pid
                counts[pid] += 1
        else:
            counts += np.bincount(nearest, minlength=num_partitions)
    return pids, dists


def pruned_pair_count(pivots: np.ndarray, metric: Metric, points: np.ndarray) -> int:
    """The pairs one ``assign_points`` call may count, by the stated rule.

    For a call of at most ``max(1024, 2**22 // M)`` rows (a longer one is
    searched in windows of that many rows, each counted like a call).  With
    fewer than 16 pivots, all of them.  Otherwise ``ceil(sqrt(M))`` anchors —
    pivot 0, then each time the pivot farthest from the anchors so far (the
    first of equals) — are compared with every object; an object whose
    nearest anchor ``a`` is at distance ``u`` has as *prefix length* the
    number of other pivots with ``|a, p_j| <= u * (2 + 1e-9) + 1e-9``.  The
    objects with one, ascending by prefix length, are cut into bands — at most three
    times in two, each time where ``rows before the cut x (longest prefix -
    theirs)`` is largest, and only if that is at least 1 024 per anchor — and
    the objects of one anchor in one band cost their number times their
    longest prefix.  Spelled out with loops; nothing here is counted on
    ``metric``.
    """
    pivots = np.asarray(pivots, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    total_pivots = pivots.shape[0]
    if total_pivots < 16:
        return points.shape[0] * total_pivots
    pdm = metric._cross(pivots, pivots)
    anchors = [0]
    while len(anchors) < int(np.ceil(np.sqrt(total_pivots))):
        gaps = [
            -1.0 if j in anchors else min(pdm[a, j] for a in anchors)
            for j in range(total_pivots)
        ]
        anchors.append(gaps.index(max(gaps)))
    others = [j for j in range(total_pivots) if j not in anchors]
    to_anchors = metric._cross(points, pivots[anchors])
    nearest = np.argmin(to_anchors, axis=1)
    lengths = np.array(
        [
            int((pdm[anchors[a], others] <= row[a] * (2.0 + 1e-9) + 1e-9).sum())
            for a, row in zip(nearest, to_anchors)
        ],
        dtype=int,
    )
    rank = sorted(np.flatnonzero(lengths), key=lambda i: (lengths[i], i))
    total = points.shape[0] * len(anchors)
    for band in _bands([int(lengths[i]) for i in rank], 3, 1024 * len(anchors)):
        rows = [rank[i] for i in band]
        for a in set(nearest[rows]):
            mine = [i for i in rows if nearest[i] == a]
            total += len(mine) * int(lengths[mine].max())
    return total


def _bands(lengths: list[int], cuts_left: int, worth: int) -> list[range]:
    """Index ranges of the ascending ``lengths``, cut where it saves most."""

    def cut(lo: int, hi: int, cuts_left: int) -> list[range]:
        if cuts_left and hi - lo > 1:
            savings = [(at - lo) * (lengths[hi - 1] - lengths[at - 1]) for at in range(lo + 1, hi)]
            if max(savings) >= worth:
                at = lo + 1 + savings.index(max(savings))
                return cut(lo, at, cuts_left - 1) + cut(at, hi, cuts_left - 1)
        return [range(lo, hi)]

    return cut(0, len(lengths), cuts_left) if lengths else []
