"""The own-pivot-only reducer kernel, kept as the test-side reference.

A copy of ``knn_join_kernel_reference`` as the library shipped it before
the anchor codes and before the own cell was scanned in bound-ordered
rounds: ``|r, p_j|`` is skipped only where the own pivot's bound ``|p_i,
p_j| - |r, p_i|`` decides the (row, cell) pair, and every row scans each
cell's whole ring.  ``src/`` holds only the kernel with the later rules;
``tests/test_kernels.py`` holds it to this one's results on adversarial
worlds, with no more pairs of either kind.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.distance import Metric
from repro.core.geometry import (
    PRUNE_EPS,
    partition_pruned_by_hyperplane,
    pivot_distance_needed,
    ring_slice,
)
from repro.core.knn import ReferenceKBestList
from repro.joins.kernels import _step_windows


def own_pivot_kernel(
    metric: Metric,
    k: int,
    r_blocks: dict,
    s_blocks: dict,
    thetas: dict[int, float],
    ring_stats: dict[int, tuple[float, float]],
    pivot_points: np.ndarray,
    pivot_dist_matrix: np.ndarray,
    use_hyperplane_pruning: bool = True,
    use_ring_pruning: bool = True,
    pivot_metric: Metric | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yields ``(r_id, neighbor_ids, dists)`` one R object at a time;
    ``pivot_metric`` counts the object-pivot distances (``metric`` when
    omitted)."""
    pivot_metric = pivot_metric or metric
    present = sorted(s_blocks)
    present_points = pivot_points[present]
    euclidean = metric.name == "l2"

    for pid_r in sorted(r_blocks):
        r_block = r_blocks[pid_r]
        pdm_row = pivot_dist_matrix[pid_r]
        order = sorted(range(len(present)), key=lambda idx: pdm_row[present[idx]])

        for row in range(r_block.ids.shape[0]):
            kbest = ReferenceKBestList(k)
            theta = thetas[pid_r]
            dist_r_own = float(r_block.pivot_dists[row])
            for first_step, window_end in _step_windows(len(order)):
                wanted = [
                    idx
                    for idx in order[first_step:window_end]
                    if pivot_distance_needed(
                        dist_r_own, float(pdm_row[present[idx]]), ring_stats[present[idx]][1],
                        theta, use_hyperplane_pruning, use_ring_pruning,
                    )
                ]
                others = [idx for idx in wanted if present[idx] != pid_r]
                to_pivots = pivot_metric.distances(r_block.points[row], present_points[others])
                dr_to_pivots = dict(zip(others, to_pivots.tolist()))
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
                        continue
                    block = s_blocks[pid_s]
                    if use_ring_pruning and np.isfinite(theta):
                        lower, upper = ring_stats[pid_s]
                        start, stop = ring_slice(
                            block.pivot_dists, lower, upper, dist_r_pj, theta
                        )
                    else:
                        start, stop = 0, len(block)
                    if start >= stop:
                        continue
                    dists = metric.distances(r_block.points[row], block.points[start:stop])
                    kbest.update(dists, block.ids[start:stop])
                    if kbest.is_full():
                        theta = min(theta, kbest.theta + PRUNE_EPS)
            neighbor_ids, neighbor_dists = kbest.as_arrays()
            yield int(r_block.ids[row]), neighbor_ids, neighbor_dists
