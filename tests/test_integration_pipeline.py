"""End-to-end pipeline integration tests (Figure 3's full flow).

These walk the complete PGBJ data path — pivots → MR1 → summaries → bounds →
grouping → MR2 — asserting cross-stage consistency facts the per-module
tests cannot see.
"""

import numpy as np
import pytest

from repro import PgbjConfig, run_join
from repro.core import VoronoiPartitioner, get_metric
from repro.datasets import generate_forest
from repro.joins.base import PAIRS_GROUP
from repro.joins.partition_job import SKIPPED_NAME, make_pivot_selector
from repro.mapreduce import Cluster
from repro.mapreduce.splits import self_join_splits
from tests.reference_voronoi import pruned_pair_count


@pytest.fixture(scope="module")
def pipeline_run():
    data = generate_forest(400, seed=17)
    config = PgbjConfig(k=6, num_reducers=5, num_pivots=20, seed=9, split_size=128)
    outcome = run_join("pgbj", data, data, config)
    return data, config, outcome


class TestCrossStageConsistency:
    def test_job_names_and_order(self, pipeline_run):
        data, config, outcome = pipeline_run
        assert [s.job_name for s in outcome.job_stats] == ["partitioning", "knn-join"]
        assert outcome.job_phase_names == ["data_partitioning", "knn_join"]

    def test_partitioning_job_reads_a_self_join_once(self, pipeline_run):
        """One read of the dataset, emitted once: a row of both roles per
        object, and the join job reads each once."""
        data, config, outcome = pipeline_run
        job1, job2 = outcome.job_stats
        assert sum(t.input_records for t in job1.map_tasks) == len(data)
        assert sum(t.output_records for t in job1.map_tasks) == len(data)
        assert sum(t.input_records for t in job2.map_tasks) == len(data)

    def test_split_size_controls_map_task_count(self, pipeline_run):
        """A task ends wherever a split of R or of S would (400 objects in
        128-row splits: R cuts at 128, 256, 384; S at 112, 240, 368)."""
        data, config, outcome = pipeline_run
        job1 = outcome.job_stats[0]
        assert [t.input_records for t in job1.map_tasks] == [112, 16, 112, 16, 112, 16, 16]

    def test_join_job_runs_one_reduce_task_per_group(self, pipeline_run):
        data, config, outcome = pipeline_run
        job2 = outcome.job_stats[1]
        assert len(job2.reduce_tasks) == config.num_reducers

    def test_every_r_answered_with_k_neighbors(self, pipeline_run):
        data, config, outcome = pipeline_run
        outcome.result.validate(data.ids, len(data))
        assert outcome.result.total_pairs() == config.k * len(data)

    def test_selectivity_includes_partitioning_pass(self, pipeline_run):
        """MR1 computes or provably skips every one of the (|R| + |S|) * |P|
        object-pivot pairs; the computed ones, by the stated rule per split
        of the self-join's one dataset, are part of the selectivity."""
        data, config, outcome = pipeline_run
        pivots = make_pivot_selector(config).select(
            data, config.num_pivots, get_metric("l2"), np.random.default_rng(config.seed)
        )
        computed = sum(
            pruned_pair_count(pivots, get_metric("l2"), split.records[0][1].points)
            for split in self_join_splits(data, config.split_size)
        )
        skipped = outcome.counters.value(PAIRS_GROUP, SKIPPED_NAME)
        assert skipped > 0
        assert computed + skipped == 2 * len(data) * config.num_pivots
        assert outcome.distance_pairs > computed

    def test_broadcast_cache_accounted(self, pipeline_run):
        data, config, outcome = pipeline_run
        # both jobs broadcast non-trivial caches (pivots; bounds tables)
        assert outcome.job_stats[0].cache_bytes > 0
        assert outcome.job_stats[1].cache_bytes > outcome.job_stats[0].cache_bytes

    def test_phase_times_are_positive_and_complete(self, pipeline_run):
        data, config, outcome = pipeline_run
        phases = outcome.phase_seconds(Cluster(num_nodes=5))
        assert sum(phases.values()) == pytest.approx(
            outcome.simulated_seconds(Cluster(num_nodes=5))
        )

    def test_rerun_reproduces_shuffle_exactly(self, pipeline_run):
        data, config, outcome = pipeline_run
        again = run_join("pgbj", data, data, config)
        assert again.shuffle_records() == outcome.shuffle_records()
        assert again.shuffle_bytes() == outcome.shuffle_bytes()
        assert again.distance_pairs == outcome.distance_pairs


class TestGroupRoutingMatchesMasterPlan:
    def test_reducer_inputs_match_shipping_rule(self):
        """Recompute the shipping rule by hand — Theorem 5 and the anchor
        hull test per member cell, any member per group — the shuffle must
        match, and never exceed Theorem 6 alone."""
        data = generate_forest(300, seed=23)
        config = PgbjConfig(k=4, num_reducers=4, num_pivots=12, seed=3)
        outcome = run_join("pgbj", data, data, config)
        # reproduce the master's plan
        from repro.core.bounds import (
            cell_anchor_hulls,
            compute_lb_matrix,
            compute_thetas,
            group_lb_matrix,
        )
        from repro.core.geometry import anchor_codes, anchor_intervals, anchor_reach
        from repro.core.summary import build_partial_summary
        from repro.grouping import get_grouping_strategy

        rng = np.random.default_rng(config.seed)
        metric = get_metric("l2")
        pivots = make_pivot_selector(config).select(
            data, config.num_pivots, metric, rng
        )
        partitioner = VoronoiPartitioner(pivots, metric)
        pids, dists, anchor_dists = partitioner.assign_points(data.points)
        tr = ts = build_partial_summary(pids, dists, anchor_dists=anchor_dists)
        pdm = partitioner.pivot_distance_matrix()
        thetas = compute_thetas(tr, ts, pdm, config.k)
        lb = compute_lb_matrix(tr, pdm, thetas)
        groups = get_grouping_strategy(config.grouping).group(
            tr, ts, pdm, lb, config.num_reducers
        )
        lbg = group_lb_matrix(lb, groups.groups)
        theorem_6 = int((dists[:, None] >= lbg[pids] - 1e-9).sum())
        code_rows = pdm[partitioner.anchor_index()[0]]
        codes = anchor_codes(anchor_dists, pids, dists, code_rows)
        mids, radius = anchor_intervals(codes, pids, dists, code_rows)
        lo, hi = cell_anchor_hulls(tr, config.num_pivots)
        gaps = np.maximum(mids[:, :, None] - hi[:, None], lo[:, None] - mids[:, :, None])
        gaps = gaps.max(axis=0) - anchor_reach(mids, radius)[:, None]
        theta = np.array([thetas.get(pid, np.nan) for pid in range(config.num_pivots)])
        admits = (dists[:, None] >= lb[pids] - 1e-9) & (gaps <= theta + 1e-9)
        expected_replicas = sum(
            int(admits[:, members].any(axis=1).sum()) for members in groups.groups if members
        )
        assert expected_replicas < theorem_6
        assert outcome.replication_of_s() == expected_replicas
