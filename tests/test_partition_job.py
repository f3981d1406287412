"""Unit tests for the first MapReduce job (partitioning + summaries)."""

import numpy as np
import pytest

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.joins.base import PAIRS_GROUP, PAIRS_NAME, JoinConfig
from repro.joins.partition_job import SKIPPED_NAME, merge_summaries, run_partitioning_job
from tests.reference_voronoi import pruned_pair_count
from tests.test_plan_equivalence import env_params


@pytest.fixture
def world(rng):
    r = Dataset(rng.random((80, 3)), name="r")
    s = Dataset(rng.random((100, 3)), ids=np.arange(500, 600), name="s")
    pivots = rng.random((6, 3))
    return r, s, pivots


def run(world, split_size=32, k=4):
    r, s, pivots = world
    # the CI legs inject their engine / spill budget here
    config = JoinConfig(k=k, num_reducers=2, split_size=split_size, **env_params())
    with config.make_runtime() as runtime:
        result = run_partitioning_job(r, s, pivots, config, runtime)
    tr, ts, _ = merge_summaries(result, k)
    return r, s, pivots, result, tr, ts


class TestJobOutput:
    def test_every_object_emitted_once(self, world):
        """Output is columnar — every object in exactly one block."""
        r, s, pivots, result, tr, ts = run(world)
        total = sum(len(block) for _, block in result.outputs)
        assert total == len(r) + len(s)
        ids = sorted(
            record.object_id for _, block in result.outputs for record in block.to_records()
        )
        assert ids == sorted(list(r.ids) + list(s.ids))

    def test_records_annotated_with_cells_and_distances(self, world):
        """One block per map task: the split's rows stable-sorted by cell,
        annotated exactly as ``assign_points`` on that split says."""
        r, s, pivots, result, tr, ts = run(world, split_size=32)
        all_ids = np.concatenate([r.ids, s.ids])
        all_points = np.vstack([r.points, s.points])
        assert len(result.outputs) == len(result.stats.map_tasks) == 6
        for task, (key, block) in enumerate(result.outputs):
            assert isinstance(key, int)
            rows = slice(32 * task, 32 * (task + 1))
            cells, dists = VoronoiPartitioner(pivots, get_metric("l2")).assign_points(
                all_points[rows]
            )
            assert np.all(np.diff(block.partition_ids) >= 0)
            order = np.argsort(cells, kind="stable")  # equal cells keep input order
            assert np.array_equal(block.object_ids, all_ids[rows][order])
            assert np.array_equal(block.partition_ids, cells[order])
            assert np.array_equal(block.pivot_distances, dists[order])
            assert np.array_equal(block.points, all_points[rows][order])
            assert np.array_equal(block.is_r, np.arange(rows.start, rows.stop)[order] < len(r))
            true_dists = np.linalg.norm(pivots[None] - block.points[:, None], axis=2)
            assert block.pivot_distances == pytest.approx(true_dists.min(axis=1))

    def test_map_only_no_shuffle(self, world):
        _, _, _, result, _, _ = run(world)
        assert result.stats.shuffle_bytes == 0
        assert result.outputs_by_reducer is None

    def test_map_task_stats_count_records_not_blocks(self, world):
        """Block encoding must stay invisible to the record accounting."""
        r, s, _, result, _, _ = run(world, split_size=32)
        assert sum(t.input_records for t in result.stats.map_tasks) == len(r) + len(s)
        assert sum(t.output_records for t in result.stats.map_tasks) == len(r) + len(s)

    def test_distance_pairs_counted(self, world, rng):
        """computed + skipped == rows x pivots; computed is the stated rule's
        count per split (every pair below 16 pivots, fewer with an index)."""
        r, s, _ = world
        all_points = np.vstack([r.points, s.points])
        for pivots in (world[2], rng.random((40, 3))):
            result = run((r, s, pivots))[3]
            computed = result.counters.value(PAIRS_GROUP, PAIRS_NAME)
            all_pairs = (len(r) + len(s)) * pivots.shape[0]
            assert computed + result.counters.value(PAIRS_GROUP, SKIPPED_NAME) == all_pairs
            assert computed == sum(
                pruned_pair_count(pivots, get_metric("l2"), all_points[start : start + 32])
                for start in range(0, len(all_points), 32)
            )
        assert computed < all_pairs  # 40 pivots: the index pruned something


class TestSummaries:
    def test_tr_counts_match_r_partitioning(self, world):
        r, s, pivots, result, tr, ts = run(world)
        partitioner = VoronoiPartitioner(pivots, get_metric("l2"))
        assignment = partitioner.assign(r)
        assert np.array_equal(tr.counts(6), assignment.counts())

    def test_ts_knn_lists_match_global_sort(self, world):
        r, s, pivots, result, tr, ts = run(world)
        partitioner = VoronoiPartitioner(pivots, get_metric("l2"))
        assignment = partitioner.assign(s)
        for pid in ts.partition_ids():
            rows = assignment.rows_of(pid)
            expected = tuple(np.sort(assignment.pivot_distances[rows])[:4].tolist())
            assert ts.get(pid).knn_distances == pytest.approx(expected)

    def test_split_size_does_not_change_summaries(self, world):
        _, _, _, _, tr_small, ts_small = run(world, split_size=16)
        _, _, _, _, tr_big, ts_big = run(world, split_size=512)
        assert tr_small.partition_ids() == tr_big.partition_ids()
        for pid in tr_small.partition_ids():
            assert tr_small.get(pid).count == tr_big.get(pid).count
            assert tr_small.get(pid).upper == pytest.approx(tr_big.get(pid).upper)
        for pid in ts_small.partition_ids():
            assert ts_small.get(pid).knn_distances == pytest.approx(
                ts_big.get(pid).knn_distances
            )
