"""Tests for reduce-skew accounting and its link to grouping quality."""

import pytest

from repro import PgbjConfig, run_join
from repro.datasets import generate_forest
from repro.mapreduce.stats import JobStats, TaskStat


def stats_with_inputs(records):
    stats = JobStats(job_name="t")
    for index, count in enumerate(records):
        stats.reduce_tasks.append(
            TaskStat(f"r{index}", "reduce", float(count), count, 0)
        )
    return stats


class TestSkewMetrics:
    def test_perfect_balance_is_one(self):
        stats = stats_with_inputs([10, 10, 10])
        assert stats.reduce_input_skew() == pytest.approx(1.0)
        assert stats.reduce_skew() == pytest.approx(1.0)

    def test_single_hot_reducer(self):
        stats = stats_with_inputs([100, 0, 0, 0])
        assert stats.reduce_input_skew() == pytest.approx(4.0)

    def test_no_reduce_work(self):
        assert JobStats(job_name="t").reduce_skew() == 0.0
        assert stats_with_inputs([0, 0]).reduce_input_skew() == 0.0


class TestGroupingControlsSkew:
    def test_geometric_grouping_keeps_join_inputs_balanced(self):
        """The Table 3 story, measured end to end: grouped reducers receive
        comparable record counts on a clustered workload."""
        data = generate_forest(800, seed=4)
        outcome = run_join(
            "pgbj", data, data, PgbjConfig(k=5, num_reducers=6, num_pivots=32, seed=2)
        )
        join_stats = outcome.job_stats[1]
        assert join_stats.reduce_input_skew() < 2.5

    def test_single_group_maximal_skew(self):
        """Degenerate N=1: all records in one reducer — skew equals 1 (one
        task), sanity for the metric's denominator."""
        data = generate_forest(200, seed=5)
        outcome = run_join("pgbj", data, data, PgbjConfig(k=3, num_reducers=1, num_pivots=8))
        assert outcome.job_stats[1].reduce_input_skew() == pytest.approx(1.0)
