"""Unit tests for the first MapReduce job (partitioning + summaries)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.geometry import anchor_codes
from repro.joins.base import PAIRS_GROUP, PAIRS_NAME, BlockJoinConfig, JoinConfig, PgbjConfig
from repro.joins.partition_job import (
    SKIPPED_NAME,
    merge_summaries,
    partition_stage,
    partition_stage_key,
    run_partitioning_job,
)
from repro.mapreduce import JobGraph, PersistentThreadExecutor, PlanCache, PlanScheduler
from repro.mapreduce.faults import ChaosPlan
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
            object_id for _, block in result.outputs for object_id in block.object_ids.tolist()
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
            partitioner = VoronoiPartitioner(pivots, get_metric("l2"))
            cells, dists, anchor_dists = partitioner.assign_points(all_points[rows])
            code_rows = partitioner.pivot_distance_matrix()[partitioner.anchor_index()[0]]
            assert np.all(np.diff(block.partition_ids) >= 0)
            order = np.argsort(cells, kind="stable")  # equal cells keep input order
            assert np.array_equal(block.object_ids, all_ids[rows][order])
            assert np.array_equal(block.partition_ids, cells[order])
            assert np.array_equal(block.pivot_distances, dists[order])
            assert np.array_equal(
                block.anchor_codes, anchor_codes(anchor_dists, cells, dists, code_rows)[order]
            )
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


class TestMasterPaysOnePivotMatrix:
    """Random pivots are one sorted draw with ``JoinConfig.seed``, and the
    master pays exactly ``M(M-1)/2`` pairs for them: the pivot matrix's."""

    @pytest.mark.parametrize("config_class", [PgbjConfig, BlockJoinConfig])
    def test_stage_draws_once(self, config_class, rng):
        data = Dataset(rng.random((120, 3)), name="d")
        config = config_class(k=3, num_pivots=11, seed=5, split_size=32)
        state = {}
        graph = JobGraph("draw")
        partition_stage(graph, data, data, config, 11, state)
        with config.make_runtime() as runtime:
            PlanScheduler(runtime).execute(graph)
        rows = np.sort(np.random.default_rng(5).choice(120, size=11, replace=False))
        assert state["pivots"].tobytes() == data.points[rows].tobytes()
        assert state["metric"].pairs_computed == 11 * 10 // 2

    @pytest.mark.parametrize("name", ["pgbj", "pbj"])
    def test_outcome_reports_the_matrix_alone(self, name, rng):
        from repro.joins import get_join, run_join

        data = Dataset(rng.random((120, 3)), name="d")
        config = get_join(name).make_config(k=3, num_pivots=11, seed=5, **env_params())
        assert run_join(name, data, data, config).master_distance_pairs == 11 * 10 // 2


def canonical(value):
    """Arrays by dtype, shape and bytes; containers and objects by content."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, dict):
        return tuple((key, canonical(item)) for key, item in value.items())
    if hasattr(value, "__dict__"):
        return type(value).__name__, canonical(vars(value))
    return value


class TestStageKeyCoversEveryField:
    """The partition stage's plan-cache key against every config field: a
    perturbed field either moves the key or leaves the partitioning job's
    blocks, side outputs and counters exactly as they were.  A field the key
    does not see, yet the job reads, would serve a stale result — to a sweep
    sharing the cache and to a re-run resuming from a ``plan_cache_dir``,
    which trusts this key and no plan identity for the stage."""

    BASE = dict(k=4, num_reducers=3, num_pivots=24, split_size=128, pivot_sample_size=400)

    @staticmethod
    def perturbed(name, base, tmp_path, executor):
        """Another valid value of every field of both configs (a new field
        fails here until it is given one)."""
        selections = ("random", "farthest", "kmeans")
        return {
            "k": 7, "num_reducers": 5, "metric_name": "l1", "seed": 8, "split_size": 96,
            "engine": "processes-pooled", "max_workers": 1, "memory_budget": 2048,
            "spill_dir": str(tmp_path / "spill"), "spill_codec": "zlib", "task_timeout": 600.0,
            "plan_cache_dir": str(tmp_path / "plans"),
            "chaos": ChaosPlan.from_spec("crash:rate=0.5:attempt=1;seed=3"),
            "shared_executor": executor, "plan_cache": PlanCache(), "num_pivots": 30,
            "pivot_selection": selections[selections.index(base.pivot_selection) - 1],
            "grouping": "greedy", "pivot_sample_size": 150,
            "kmeans_iterations": 3, "use_hyperplane_pruning": False,
            "use_ring_pruning": False, "skew_split_threshold": 0.5, "skew_split_max_ways": 2,
            "rtree_capacity": 8,
        }[name]

    @staticmethod
    def stage_output(r, s, config):
        graph = JobGraph("key")
        stage = partition_stage(graph, r, s, config, config.num_pivots, {})
        with config.make_runtime() as runtime:
            result = PlanScheduler(runtime).execute(graph).execution_of(stage).result
        return canonical((result.outputs, result.side_outputs, result.counters.as_dict()))

    @pytest.mark.parametrize("self_join", [False, True], ids=["r-s", "self-join"])
    @pytest.mark.parametrize("selection", ["random", "farthest", "kmeans"])
    @pytest.mark.parametrize("config_class", [PgbjConfig, BlockJoinConfig])
    def test_every_field_moves_the_key_or_not_the_output(
        self, config_class, selection, self_join, rng, tmp_path
    ):
        r = Dataset(rng.random((300, 3)), name="r")
        s = r if self_join else Dataset(rng.random((250, 3)), ids=np.arange(1_000, 1_250), name="s")
        base = config_class(**self.BASE, pivot_selection=selection)
        key, output = partition_stage_key(r, s, base, base.num_pivots), None
        with PersistentThreadExecutor(max_workers=2) as executor:
            for spec in fields(config_class):
                value = self.perturbed(spec.name, base, tmp_path, executor)
                config = base.with_changes(**{spec.name: value})
                assert getattr(config, spec.name) != getattr(base, spec.name), spec.name
                if partition_stage_key(r, s, config, config.num_pivots) != key:
                    continue
                output = output or self.stage_output(r, s, base)
                assert self.stage_output(r, s, config) == output, spec.name
