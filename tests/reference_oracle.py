"""The per-record reducer kernel, kept as the test-side correctness oracle.

One R point at a time, scalar pruning tests and a full-lexsort k-best list,
under the same rules as :func:`~repro.joins.kernels.knn_join_kernel`:
``tests/test_kernels.py`` (and the anchor tests) hold the columnar kernel to
its neighbour lists and pair counts, byte for byte.  Every rule, constant and
helper it shares with the kernel is read through the
:mod:`repro.joins.kernels` module at call time, so a test that monkeypatches
one there (a byte budget, the stop limit, the anchor range gaps) changes
both kernels alike; the two scalar tests only it calls are imported.
``tests/reference_kernel.py`` holds the older, own-pivot-only rule set.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.distance import Metric
from repro.core.geometry import partition_pruned_by_hyperplane, ring_slice
from repro.core.knn import ReferenceKBestList
from repro.joins import kernels


def knn_join_kernel_reference(
    metric: Metric,
    k: int,
    r_blocks: dict[int, kernels.RPartitionBlock],
    s_blocks: dict[int, kernels.SPartitionBlock],
    thetas: dict[int, float],
    ring_stats: dict[int, tuple[float, float]],
    pivot_points: np.ndarray,
    pivot_dist_matrix: np.ndarray,
    use_hyperplane_pruning: bool = True,
    use_ring_pruning: bool = True,
    pivot_metric: Metric | None = None,
    code_anchors: np.ndarray | None = None,
    uppers: dict[int, float] | None = None,
    own_metric: Metric | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The seed's loop under the kernel's rules: ``|r, p_j|`` by the same
    window rule and bounds (one ``metric.distances`` per record and window),
    the first cells and the own cell scanned in the same bound-ordered
    rounds, the same anchor-filtered strips; yields ``(r_id, neighbor_ids,
    dists)`` per R row.
    """
    if not s_blocks:
        raise ValueError("reducer received R objects but no S objects")
    pivot_metric = pivot_metric or metric
    own_metric = own_metric or metric
    present = sorted(s_blocks)
    present_points = pivot_points[present]
    euclidean = metric.name == "l2"
    strip = kernels._strip_length(k)
    coded = use_ring_pruning and code_anchors is not None and len(code_anchors) > 0
    if coded:
        code_rows = pivot_dist_matrix[code_anchors]
        s_codes = {
            pid: kernels.anchor_intervals(
                block.codes, np.full(len(block), pid), block.pivot_dists, code_rows
            )
            for pid, block in s_blocks.items()
        }
        s_lo, s_hi = kernels.anchor_ranges(
            np.hstack([s_codes[pid][0] for pid in present]),
            np.concatenate([s_codes[pid][1] for pid in present]),
            np.cumsum([0] + [len(s_blocks[pid]) for pid in present]),
        )

    for pid_r in sorted(r_blocks):
        r_block = r_blocks[pid_r]
        offset = thetas[pid_r] - kernels._upper(r_blocks, uppers, pid_r)
        pdm_row = pivot_dist_matrix[pid_r]
        if coded:
            r_mids, r_radius = kernels.anchor_intervals(
                r_block.codes, np.full(len(r_block.ids), pid_r), r_block.pivot_dists, code_rows
            )
            r_reach = kernels.anchor_reach(r_mids, r_radius)
        order = sorted(range(len(present)), key=lambda idx: pdm_row[present[idx]])
        step_of = {idx: step for step, idx in enumerate(order)}
        # a self-join's own cell, if its rows x rows memo fits: memo[a, b]
        # holds |b, a| once row b computed it, and 0.0 if a is b
        twins = s_blocks[pid_r].twins if pid_r in s_blocks else None
        rows_here = len(r_block.ids)
        memo = None
        if twins is not None and rows_here * rows_here * 8 <= kernels._TILE_BYTES:
            memo = np.full((rows_here, rows_here), np.nan)
            np.fill_diagonal(memo, 0.0)

        for row in range(r_block.ids.shape[0]):
            kbest = ReferenceKBestList(k)
            point = r_block.points[row]
            dist_r_own = float(r_block.pivot_dists[row])
            theta = offset + dist_r_own

            def ring(block, pid_s, dist_r_pj):
                if use_ring_pruning and np.isfinite(theta):
                    return ring_slice(block.pivot_dists, *ring_stats[pid_s], dist_r_pj, theta)
                return 0, len(block)

            def fold(block, entries, counted):
                nonlocal theta
                for lo in range(0, entries.size, strip):
                    chunk = entries[lo : lo + strip]
                    if coded:
                        s_mids, s_radius = s_codes[block.partition_id]
                        chunk = chunk[kernels._codes_admit(
                            r_mids[:, row, None], s_mids[:, chunk],
                            theta + r_radius[row] + s_radius[chunk],
                        )]
                    if chunk.size:
                        if memo is not None and block.partition_id == pid_r:
                            dists = own_distances(block, chunk)
                        else:
                            dists = counted.distances(point, block.points[chunk])
                        kbest.update(dists, block.ids[chunk])
                        if kbest.is_full():
                            theta = min(theta, kbest.theta + kernels.PRUNE_EPS)

            def own_distances(block, chunk):
                # the memo's for an entry with a twin row, if known; each
                # computed one is stored for the twin row
                twin = twins[chunk]
                dists = np.full(chunk.size, np.nan)
                dists[twin >= 0] = memo[row, twin[twin >= 0]]
                todo = np.isnan(dists)
                dists[todo] = own_metric.distances(point, block.points[chunk[todo]])
                stored = todo & (twin >= 0)
                memo[twin[stored], row] = dists[stored]
                return dists

            def rounds(block, pid_s, dist_r_pj, counted):
                # the ring slice in ascending bound, ties by entry; a round
                # folds the entries its re-cut ring admits
                entries = np.arange(*ring(block, pid_s, dist_r_pj))
                anchors = None
                if coded:
                    s_mids, s_radius = s_codes[pid_s]
                    anchors = (r_mids, s_mids, r_radius, s_radius)
                bounds = kernels._entry_bounds(
                    dist_r_pj, block.pivot_dists[entries], anchors,
                    np.full(entries.size, row), entries,
                )
                by_bound = np.lexsort((entries, bounds))
                entries, bounds = entries[by_bound], bounds[by_bound]
                at, size = 0, kernels._first_round(k, pid_s == pid_r)
                while at < entries.size and bounds[at] <= kernels._stop_limit(theta, dist_r_pj):
                    start, stop = ring(block, pid_s, dist_r_pj)
                    taken = entries[at : at + size]
                    fold(block, taken[(taken >= start) & (taken < stop)], counted)
                    at, size = at + size, 2 * size

            for first_step, window_end in kernels._step_windows(len(order)):
                # the window rule of knn_join_kernel, one record at a time
                wanted = []
                window = order[first_step:window_end]
                if coded:
                    # the cells' anchor ranges: every member beyond theta
                    far = kernels.anchor_range_gaps(
                        r_mids, r_reach, np.full(len(window), row), s_lo, s_hi, np.array(window)
                    ) > theta + kernels.PRUNE_EPS
                    window = [idx for idx, beyond in zip(window, far) if not beyond]
                for idx in window:
                    gap, upper = float(pdm_row[present[idx]]), ring_stats[present[idx]][1]
                    if kernels.pivot_distance_needed(
                        dist_r_own, gap, upper, theta, use_hyperplane_pruning, use_ring_pruning
                    ):
                        wanted.append(idx)
                # the own cell's distance is already known: the row's pivot distance
                others = [idx for idx in wanted if present[idx] != pid_r]
                to_pivots = pivot_metric.distances(point, present_points[others]).tolist()
                dr_to_pivots = dict(zip(others, to_pivots))
                for idx in wanted:
                    pid_s = present[idx]
                    dist_r_pj = dr_to_pivots.get(idx, dist_r_own)
                    if (
                        use_hyperplane_pruning
                        and pid_s != pid_r
                        and partition_pruned_by_hyperplane(
                            dist_r_own, dist_r_pj, float(pdm_row[pid_s]), theta, euclidean
                        )
                    ):
                        continue  # Corollary 1 discards the whole cell
                    block = s_blocks[pid_s]
                    counted = own_metric if pid_s == pid_r else metric
                    if use_ring_pruning and (pid_s == pid_r or step_of[idx] < kernels._ROUND_STEPS):
                        rounds(block, pid_s, dist_r_pj, counted)
                    else:
                        fold(block, np.arange(*ring(block, pid_s, dist_r_pj)), counted)
            neighbor_ids, neighbor_dists = kbest.as_arrays()
            yield int(r_block.ids[row]), neighbor_ids, neighbor_dists
