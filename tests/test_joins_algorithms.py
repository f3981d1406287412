"""Per-algorithm unit tests: PGBJ, PBJ, H-BRJ, broadcast."""

import numpy as np
import pytest

from repro import BlockJoinConfig, JoinConfig, PgbjConfig, run_join
from tests.conftest import ground_truth


class TestPgbj:
    def test_exact_on_uniform(self, small_uniform):
        outcome = run_join(
            "pgbj",
            small_uniform,
            small_uniform,
            PgbjConfig(k=5, num_reducers=4, num_pivots=10, split_size=64),
        )
        truth = ground_truth(small_uniform, small_uniform, 5)
        assert outcome.result.same_distances_as(truth)
        outcome.result.validate(small_uniform.ids, len(small_uniform))

    def test_exact_on_integer_data_with_ties(self, small_forest):
        outcome = run_join(
            "pgbj",
            small_forest,
            small_forest,
            PgbjConfig(k=4, num_reducers=4, num_pivots=12, split_size=64),
        )
        truth = ground_truth(small_forest, small_forest, 4)
        assert outcome.result.same_distances_as(truth)

    def test_non_self_join(self, rng):
        from repro.core import Dataset

        r = Dataset(rng.random((60, 3)), name="r")
        s = Dataset(rng.random((90, 3)), ids=np.arange(500, 590), name="s")
        outcome = run_join("pgbj", r, s, PgbjConfig(k=3, num_reducers=3, num_pivots=8))
        assert outcome.result.same_distances_as(ground_truth(r, s, 3))

    @pytest.mark.parametrize("pivot_selection", ["random", "farthest", "kmeans"])
    def test_all_pivot_strategies_exact(self, small_uniform, pivot_selection):
        config = PgbjConfig(
            k=3, num_reducers=3, num_pivots=8, pivot_selection=pivot_selection
        )
        outcome = run_join("pgbj", small_uniform, small_uniform, config)
        assert outcome.result.same_distances_as(ground_truth(small_uniform, small_uniform, 3))

    @pytest.mark.parametrize("grouping", ["geometric", "greedy"])
    def test_both_groupings_exact(self, small_uniform, grouping):
        config = PgbjConfig(k=3, num_reducers=4, num_pivots=10, grouping=grouping)
        outcome = run_join("pgbj", small_uniform, small_uniform, config)
        assert outcome.result.same_distances_as(ground_truth(small_uniform, small_uniform, 3))

    def test_exact_under_l1_metric(self, small_uniform):
        from repro.core import KnnJoinResult, brute_force_knn_join, get_metric

        config = PgbjConfig(k=3, num_reducers=3, num_pivots=8, metric_name="l1")
        outcome = run_join("pgbj", small_uniform, small_uniform, config)
        metric = get_metric("l1")
        truth = KnnJoinResult.from_dict(
            3,
            brute_force_knn_join(
                metric, small_uniform.points, small_uniform.ids,
                small_uniform.points, small_uniform.ids, 3,
            ),
        )
        assert outcome.result.same_distances_as(truth)

    def test_phase_breakdown_has_paper_names(self, small_uniform):
        from repro.mapreduce import Cluster

        outcome = run_join(
            "pgbj", small_uniform, small_uniform, PgbjConfig(k=3, num_reducers=3, num_pivots=8)
        )
        phases = outcome.phase_seconds(Cluster(num_nodes=3))
        assert set(phases) == {
            "pivot_selection",
            "data_partitioning",
            "index_merging",
            "partition_grouping",
            "knn_join",
        }
        assert all(seconds >= 0 for seconds in phases.values())

    def test_shuffle_is_r_plus_alpha_s_records(self, small_uniform):
        """PGBJ job-2 shuffle = |R| + RP(S) records (no R replication)."""
        outcome = run_join(
            "pgbj", small_uniform, small_uniform, PgbjConfig(k=3, num_reducers=4, num_pivots=10)
        )
        join_stats = outcome.job_stats[1]
        assert join_stats.shuffle_records == len(small_uniform) + outcome.replication_of_s()

    def test_replication_at_most_broadcast(self, small_uniform):
        outcome = run_join(
            "pgbj", small_uniform, small_uniform, PgbjConfig(k=3, num_reducers=4, num_pivots=10)
        )
        assert outcome.replication_of_s() <= 4 * len(small_uniform)
        assert outcome.avg_replication_of_s() >= 1.0

    def test_deterministic(self, small_uniform):
        config = PgbjConfig(k=3, num_reducers=3, num_pivots=8, seed=5)
        a = run_join("pgbj", small_uniform, small_uniform, config)
        b = run_join("pgbj", small_uniform, small_uniform, config)
        assert a.result.same_distances_as(b.result)
        assert a.shuffle_bytes() == b.shuffle_bytes()
        assert a.distance_pairs == b.distance_pairs

    def test_k_exceeding_s_rejected(self, small_uniform):
        with pytest.raises(ValueError, match="exceeds"):
            run_join("pgbj", small_uniform, small_uniform, PgbjConfig(k=1000, num_pivots=8))

    def test_dimension_mismatch_rejected(self, small_uniform, small_osm):
        with pytest.raises(ValueError, match="dimension"):
            run_join("pgbj", small_uniform, small_osm, PgbjConfig(k=2, num_pivots=8))


class TestPbj:
    def test_exact(self, small_uniform):
        outcome = run_join(
            "pbj", small_uniform, small_uniform, BlockJoinConfig(k=5, num_reducers=4, num_pivots=8)
        )
        assert outcome.result.same_distances_as(ground_truth(small_uniform, small_uniform, 5))

    def test_exact_with_tiny_blocks(self, rng):
        """Blocks smaller than k force the infinite-theta partial path."""
        from repro.core import Dataset

        data = Dataset(rng.random((30, 2)))
        outcome = run_join("pbj", data, data, BlockJoinConfig(k=9, num_reducers=9, num_pivots=4))
        assert outcome.result.same_distances_as(ground_truth(data, data, 9))

    def test_three_jobs_run(self, small_uniform):
        outcome = run_join(
            "pbj", small_uniform, small_uniform, BlockJoinConfig(k=3, num_reducers=4, num_pivots=8)
        )
        assert outcome.job_phase_names == ["data_partitioning", "knn_join", "merge"]

    def test_block_replication_is_sqrt_n(self, small_uniform):
        config = BlockJoinConfig(k=3, num_reducers=9, num_pivots=8)
        outcome = run_join("pbj", small_uniform, small_uniform, config)
        assert outcome.replication_of_s() == config.num_blocks * len(small_uniform)


class TestHbrj:
    def test_exact(self, small_uniform):
        outcome = run_join(
            "hbrj", small_uniform, small_uniform, BlockJoinConfig(k=5, num_reducers=4)
        )
        assert outcome.result.same_distances_as(ground_truth(small_uniform, small_uniform, 5))

    def test_exact_on_clustered_osm(self, small_osm):
        outcome = run_join("hbrj", small_osm, small_osm, BlockJoinConfig(k=3, num_reducers=9))
        assert outcome.result.same_distances_as(ground_truth(small_osm, small_osm, 3))

    def test_no_master_phases(self, small_uniform):
        outcome = run_join(
            "hbrj", small_uniform, small_uniform, BlockJoinConfig(k=3, num_reducers=4)
        )
        assert outcome.master_phases == {}
        assert outcome.master_distance_pairs == 0

    def test_num_blocks_floor_sqrt(self):
        assert BlockJoinConfig(num_reducers=9).num_blocks == 3
        assert BlockJoinConfig(num_reducers=10).num_blocks == 3
        assert BlockJoinConfig(num_reducers=1).num_blocks == 1


class TestBroadcast:
    def test_exact(self, small_uniform):
        outcome = run_join(
            "broadcast", small_uniform, small_uniform, JoinConfig(k=5, num_reducers=4)
        )
        assert outcome.result.same_distances_as(ground_truth(small_uniform, small_uniform, 5))

    def test_selectivity_is_one(self, small_uniform):
        """The naive strategy computes every pair exactly once."""
        outcome = run_join(
            "broadcast", small_uniform, small_uniform, JoinConfig(k=3, num_reducers=4)
        )
        assert outcome.selectivity() == pytest.approx(1.0)

    def test_replication_is_n_copies(self, small_uniform):
        outcome = run_join(
            "broadcast", small_uniform, small_uniform, JoinConfig(k=3, num_reducers=5)
        )
        assert outcome.replication_of_s() == 5 * len(small_uniform)
