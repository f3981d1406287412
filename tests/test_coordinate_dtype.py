"""The coordinate dtype a join ships, and that nothing downstream can tell.

:func:`~repro.mapreduce.splits.coordinate_dtype` picks, once per join, the
narrowest dtype of ``int8 → int16 → int32 → float32 → float64`` whose cast
equals every coordinate of R and S by value; the splits carry both datasets
in it.  Consumers widen to float64 before any arithmetic, so a join on a
narrow world must answer, count and replicate exactly as the same join
shipping float64 — only its shuffle bytes fall, by ``8 − w`` bytes per
coordinate of every shuffled object row.
"""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.joins import kernels
from repro.joins.registry import available_joins, get_join, run_join
from repro.mapreduce import RecordBlock, splits
from repro.mapreduce.splits import coordinate_dtype, dataset_splits, self_join_splits
from repro.mapreduce.types import COORDINATE_DTYPES, ROLE_S

INT8, INT16, INT32, FLOAT32, FLOAT64 = COORDINATE_DTYPES


def shipped_dtypes(split_list) -> set:
    return {block.points.dtype for split in split_list for _, block in split.records}


class TestSelectionRule:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([0.0, 1.0, -128.0, 127.0], INT8),
            ([128.0], INT16),
            ([-32768.0, 32767.0], INT16),
            ([40000.0], INT32),
            ([2.0**24 + 1], INT32),  # an integer float32 cannot hold: never float32
            ([-(2.0**31), 2.0**31 - 1], INT32),
            ([2.0**31], FLOAT32),  # overflows int32, but a float32 holds it exactly
            ([2.0**31 + 1], FLOAT64),  # beyond int32 and float32's 24-bit mantissa
            ([0.5, 1.25], FLOAT32),
            ([float(np.float32(0.1))], FLOAT32),  # float32-valued data
            ([0.1], FLOAT64),
            ([1e39], FLOAT64),  # float32 overflows to inf
            ([np.nan], FLOAT64),
        ],
    )
    def test_narrowest_rung_that_holds_every_value(self, values, expected):
        assert coordinate_dtype(np.array([values])) == expected

    def test_negative_zero_narrows_to_an_integer(self):
        # value equality, not a bit-exact round trip: -0.0 == 0
        points = np.array([[-0.0, 3.0], [7.0, -0.0]])
        assert coordinate_dtype(points) == INT8

    def test_one_fractional_dataset_widens_both(self):
        r = Dataset(np.arange(12.0).reshape(6, 2), name="r")
        s = Dataset(np.arange(12.0).reshape(6, 2) + 0.1, name="s")
        assert coordinate_dtype(r.points, s.points) == FLOAT64
        assert shipped_dtypes(dataset_splits(r, s, 4)) == {FLOAT64}

    def test_r_and_s_share_the_widest_need(self):
        r = Dataset(np.arange(12.0).reshape(6, 2), name="r")  # int8 alone
        s = Dataset(np.arange(12.0).reshape(6, 2) * 1000, name="s")  # int16
        assert shipped_dtypes(dataset_splits(r, s, 4)) == {INT16}

    def test_self_join_splits_narrow_too(self):
        data = Dataset(np.arange(40.0).reshape(20, 2) - 20, name="d")
        assert shipped_dtypes(self_join_splits(data, 8)) == {INT8}

    def test_float64_blocks_stay_views(self):
        rng = np.random.default_rng(2)
        r = Dataset(rng.random((9, 3)), name="r")
        s = Dataset(rng.random((5, 3)), name="s")
        for split in dataset_splits(r, s, 4):
            for tag, block in split.records:
                source = r if tag == "R" else s
                assert block.points.dtype == FLOAT64
                assert np.shares_memory(block.points, source.points)

    def test_narrowed_blocks_hold_the_dataset_values(self):
        data = Dataset(np.arange(-30.0, 30.0).reshape(20, 3) * 1000, name="d")
        (split,) = self_join_splits(data, 64)
        ((_, block),) = split.records
        assert block.points.dtype == INT16
        assert np.array_equal(block.points, data.points)


class TestKernelWidening:
    @pytest.mark.parametrize("dtype", (INT16, FLOAT64), ids=("int16", "float64"))
    def test_partition_blocks_hold_float64_points(self, dtype):
        rng = np.random.default_rng(3)
        points = rng.integers(-32768, 32767, size=(12, 4), endpoint=True)
        block = RecordBlock.of_objects(ROLE_S, np.arange(12), points.astype(dtype))
        block.partition_ids = (np.arange(12) % 3).astype(np.int32)
        block.pivot_distances = rng.random(12)
        for build in (kernels.build_s_blocks, kernels.build_r_blocks):
            cells = build(block)
            assert {cell.points.dtype for cell in cells.values()} == {FLOAT64}
            rows = np.concatenate([cell.ids for cell in cells.values()])
            widened = np.concatenate([cell.points for cell in cells.values()])
            assert np.array_equal(widened, points[rows])


# -- overflow safety: every join at each rung's extremes ----------------------

#: rung -> largest magnitude of its world's coordinates
EXTREMES = {INT8: 127, INT16: 32767, INT32: 2**31 - 1}
KNN_JOINS = available_joins()


def extreme_world(rung, seed: int, rows: int = 48, dims: int = 3) -> Dataset:
    """Integers spanning ``±EXTREMES[rung]``, both extremes present, so the
    narrow dtype's own subtraction would overflow."""
    top = EXTREMES[rung]
    rng = np.random.default_rng(seed)
    points = rng.integers(-top, top, size=(rows, dims), endpoint=True)
    points[0], points[1] = top, -top
    return Dataset(points.astype(float), name=f"{rung}-{seed}")


def run(name, r, s, metric, monkeypatch, wide: bool):
    with monkeypatch.context() as patch:
        if wide:
            patch.setattr(splits, "coordinate_dtype", lambda *arrays: FLOAT64)
        config = get_join(name).make_config(
            k=3, num_pivots=6, num_reducers=3, split_size=20, metric_name=metric,
        )
        return run_join(name, r, s, config)


def neighbours(outcome) -> list:
    return [
        (r_id, *(column.tobytes() for column in outcome.result.neighbors_of(r_id)))
        for r_id in outcome.result.r_ids()
    ]


def assert_narrow_equals_wide(narrow, wide, rung, dims: int) -> None:
    assert neighbours(narrow) == neighbours(wide)
    assert narrow.distance_pairs == wide.distance_pairs
    assert narrow.replication_of_s() == wide.replication_of_s()
    assert narrow.shuffle_records() == wide.shuffle_records()
    # every object row a stage shuffles is (8 - w) bytes lighter per
    # coordinate; candidate lists (a merge stage's records, and those the
    # first z-order job hands the last copy's beside its rows) carry none
    saved = (8 - rung.itemsize) * dims
    handed_on = 0
    for stage, narrow_stats, wide_stats in zip(
        wide.job_stats.names, narrow.job_stats, wide.job_stats
    ):
        rows = 0 if stage.endswith("/merge") else wide_stats.shuffle_records
        rows -= handed_on if stage == "zorder/last" else 0
        assert wide_stats.shuffle_bytes - narrow_stats.shuffle_bytes == rows * saved, stage
        handed_on = sum(task.output_records for task in wide_stats.reduce_tasks)
    assert narrow.shuffle_bytes() < wide.shuffle_bytes()


@pytest.mark.parametrize("metric", ("l1", "l2", "linf"))
@pytest.mark.parametrize("rung", list(EXTREMES), ids=lambda rung: rung.name)
class TestOverflowSafety:
    @pytest.mark.parametrize("name", KNN_JOINS)
    def test_join_equals_its_float64_run(self, name, rung, metric, monkeypatch):
        r, s = extreme_world(rung, 1), extreme_world(rung, 2)
        assert coordinate_dtype(r.points, s.points) == rung
        narrow = run(name, r, s, metric, monkeypatch, wide=False)
        wide = run(name, r, s, metric, monkeypatch, wide=True)
        assert_narrow_equals_wide(narrow, wide, rung, r.dimensions)

    @pytest.mark.parametrize("name", KNN_JOINS)
    def test_self_join_equals_its_float64_run(self, name, rung, metric, monkeypatch):
        data = extreme_world(rung, 5)
        narrow = run(name, data, data, metric, monkeypatch, wide=False)
        wide = run(name, data, data, metric, monkeypatch, wide=True)
        assert_narrow_equals_wide(narrow, wide, rung, data.dimensions)
