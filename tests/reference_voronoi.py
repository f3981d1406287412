"""The all-pairs Voronoi assignment, kept as the test-side reference.

A copy of ``VoronoiPartitioner.assign_points`` as the library shipped it
before the nearest pivot was searched with the pivot–pivot triangle bound:
every object is compared with every pivot, 1 024 rows at a time, and
footnote 1 breaks ties toward the cell with the fewest objects so far.
``src/`` holds only the pruned search (each object's pivots bounded by the
triangle inequality through anchor pivots, in two rounds);
``tests/test_voronoi_reference.py`` holds it equal to this one — partition
ids and the bytes of the pivot distances — and holds its pair counter to the
rule :func:`pruned_pair_count` states, and its anchors to the count
:func:`anchor_ids` chooses, both in plain loops.
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

    Per object, so a call counts the same however its rows are windowed.
    With fewer than 16 pivots, all of them.  Otherwise the anchors of
    :func:`anchor_ids` are compared with every object.  An object whose
    nearest anchor (the first of equals) ``a`` is at distance ``u`` bounds
    every other pivot ``p`` by ``max_b | |o, b| - |b, p| |`` over its
    *bounding anchors*: ``a``, then the anchors nearest ``a`` (the first of
    equals), eight in all.  With ``reach(x) = x * (1 + 1e-9) + (the object's
    largest anchor distance * 1e-9 + 1e-9)``, round 1 computes the pivot of
    smallest bound (the first of equals in ``a``'s list: nearest ``a`` first,
    then by id) if that bound is within ``reach(u)``, and ``best`` becomes the
    smaller of ``u`` and its distance; round 2 computes every other pivot
    whose bound is within ``reach(best)``.  No prefix, block or window of the
    library's search appears here: one object at a time, every other pivot
    bounded, nothing counted on ``metric``.
    """
    pivots = np.asarray(pivots, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pivots.shape[0] < 16:
        return points.shape[0] * pivots.shape[0]
    pdm = metric._cross(pivots, pivots)
    anchors = anchor_ids(pdm)
    lists = _lists(pdm, anchors)
    total = 0
    for point, to_anchors in zip(points, metric._cross(points, pivots[anchors])):

        def distance_to(pivot: int, point=point) -> float:
            return float(metric._cross(point[None], pivots[[pivot]])[0, 0])

        total += len(anchors) + _rounds(to_anchors, lists, distance_to)
    return total


def _lists(pdm: np.ndarray, anchors: list[int]) -> dict:
    """Per nearest anchor: its list of the other pivots (nearest it first,
    then by id), its bounding anchors, and their distances to the listed
    pivots (a row of this matrix per bounding anchor)."""
    others = [j for j in range(pdm.shape[0]) if j not in anchors]
    lists = {}
    for a in range(len(anchors)):
        listed = sorted(others, key=lambda j: (pdm[anchors[a], j], j))
        bounding = sorted(
            range(len(anchors)), key=lambda b: (-1.0 if b == a else pdm[anchors[a], anchors[b]], b)
        )[:8]
        lists[a] = listed, bounding, pdm[np.ix_([anchors[b] for b in bounding], listed)]
    return lists


def _rounds(to_anchors: np.ndarray, lists: dict, distance_to, itself: int | None = None) -> int:
    """The pairs one object's two rounds compute past its anchor distances
    (:func:`pruned_pair_count` states them); ``itself``, if given, is a pivot
    left out of the object's search."""
    best = float(to_anchors.min())
    slack = float(to_anchors.max()) * 1e-9 + 1e-9

    def reach(best: float) -> float:
        return best * (1.0 + 1e-9) + slack

    listed, bounding, to_listed = lists[int(np.argmin(to_anchors))]
    bounds = np.abs(to_anchors[bounding][:, None] - to_listed).max(axis=0)
    if itself is not None:
        bounds[listed.index(itself)] = np.inf
    first = int(np.argmin(bounds))
    if bounds[first] > reach(best):
        return 0
    best = min(best, distance_to(listed[first]))
    return 1 + int((bounds <= reach(best)).sum()) - int(bounds[first] <= reach(best))


def prefix_pair_count(pivots: np.ndarray, metric: Metric, points: np.ndarray) -> int:
    """The coarser rule the bound refines: the anchors, plus every other pivot
    ``p`` the object's nearest anchor ``a`` alone cannot rule out — ``|a, p|
    <= (u + reach(u)) * (1 + 1e-9)`` with ``u = |o, a|`` and ``reach`` as in
    :func:`pruned_pair_count` (``2u`` plus the slack, plus a margin for the
    rounding of ``|a, p| - u``): the nearest anchor's prefix, unbounded."""
    pivots = np.asarray(pivots, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pivots.shape[0] < 16:
        return points.shape[0] * pivots.shape[0]
    pdm = metric._cross(pivots, pivots)
    anchors = anchor_ids(pdm)
    others = [j for j in range(pivots.shape[0]) if j not in anchors]
    total = 0
    for to_anchors in metric._cross(points, pivots[anchors]):
        a, u = anchors[int(np.argmin(to_anchors))], float(to_anchors.min())
        reach = u * (1.0 + 1e-9) + (float(to_anchors.max()) * 1e-9 + 1e-9)
        total += len(anchors) + int((pdm[a, others] <= (u + reach) * (1.0 + 1e-9)).sum())
    return total


def anchor_ids(pdm: np.ndarray) -> list[int]:
    """The anchors: the first ``A`` of the :func:`farthest_first` pivots.

    ``A`` is the smallest count of the fewest pairs over the *stand-ins*, the
    first 64 pivots by id outside those ``ceil(sqrt(M))``: each stand-in is
    searched as an object would be, its distances read from ``pdm`` and
    itself left out of its search, so ``A`` costs its ``A`` anchor pairs plus
    what its rounds compute.  Counts are tried from 1 up, and stop once the
    anchor pairs alone reach the fewest so far."""
    order = farthest_first(pdm)
    standins = [j for j in range(pdm.shape[0]) if j not in order][:64]
    fewest, chosen = None, 1
    for count in range(1, len(order) + 1):
        if fewest is not None and count * len(standins) >= fewest:
            break
        lists = _lists(pdm, order[:count])
        pairs = 0
        for q in standins:
            to_anchors = pdm[q, order[:count]]
            pairs += count + _rounds(to_anchors, lists, lambda p, q=q: pdm[q, p], itself=q)
        if fewest is None or pairs < fewest:
            fewest, chosen = pairs, count
    return order[:chosen]


def farthest_first(pdm: np.ndarray) -> list[int]:
    """``ceil(sqrt(M))`` pivots: pivot 0, then each time the pivot farthest
    from those taken so far (the first of equals)."""
    order = [0]
    while len(order) < int(np.ceil(np.sqrt(pdm.shape[0]))):
        gaps = [
            -1.0 if j in order else min(pdm[a, j] for a in order) for j in range(pdm.shape[0])
        ]
        order.append(gaps.index(max(gaps)))
    return order
