"""Ablation (beyond the paper): PGBJ with its pruning rules disabled.

Quantifies what each of Corollary 1 (hyperplane) and Theorem 2 (ring)
contributes to the computation-selectivity win.  Each switch also governs
the reducer rules derived from its theorem: ``use_hyperplane_pruning`` the
Corollary 1 test of the own pivot's lower bound on ``|r, p_j|``,
``use_ring_pruning`` its Theorem 5 test, the bound-ordered scan of the first
cells and the own cell, and the rings around the anchors, decoded from the
codes the partitioning job ships, that filter every scanned pair and whole
(row, cell) pairs; with both off every object-pivot
distance is computed and every cell scanned whole.
Every row assigns objects to pivots the library's way: every object is
compared with at most ``ceil(sqrt(M))`` anchor pivots (the master takes as
many, farthest-first, as its pivot matrix says pay), its other pivots are
bounded from below through eight of them (its nearest anchor and the anchors
nearest that one), and only the pivots within reach of the best distance so
far are computed, the smallest bound first.  A last row gives the paper
configuration under the paper's all-pairs Voronoi assignment, recovered from
the ``assignment_pairs_skipped`` counter of the first run (no switch exists);
beside it the script prints how many anchors the pruned assignment chose.
"""

import numpy as np

from repro.bench import DEFAULTS, ablation_pruning_experiment, forest_workload
from repro.bench.harness import scaled_pivots
from repro.core import VoronoiPartitioner, get_metric
from repro.joins import get_join
from repro.joins.partition_job import make_pivot_selector


def chosen_anchors(seed: int = 0) -> tuple[int, int]:
    """``(anchors chosen, M)`` on the exhibit's pivots: the random draw the
    partition stage makes from the same data and seed."""
    config = get_join("pgbj").make_config(
        num_pivots=scaled_pivots(DEFAULTS["num_pivots"]), seed=seed
    )
    metric = get_metric(config.metric_name)
    pivots, pdm = make_pivot_selector(config).select_with_distances(
        forest_workload(seed=seed), config.num_pivots, metric, np.random.default_rng(config.seed)
    )
    anchors = VoronoiPartitioner(pivots, metric, distance_matrix=pdm).anchor_index()[0]
    return anchors.size, config.num_pivots


def test_ablation_pruning(benchmark, exhibit_runner):
    result = exhibit_runner(ablation_pruning_experiment)
    chosen, pivots = chosen_anchors()
    print(f"both on, all-pairs assignment: the pruned one took {chosen} anchors of {pivots} pivots")
    both = result.data["both on (paper)"]["selectivity_permille"]
    neither = result.data["both off"]["selectivity_permille"]
    assert both < neither
    # each rule alone also helps over nothing
    assert result.data["no hyperplane"]["selectivity_permille"] < neither
    assert result.data["no ring"]["selectivity_permille"] < neither
    # the assignment's triangle bound only ever removes pairs
    assert both <= result.data["both on, all-pairs assignment"]["selectivity_permille"]
