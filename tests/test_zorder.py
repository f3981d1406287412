"""Unit tests for the z-order transform and the approximate join extension."""

import bisect
import copy
import dataclasses
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, KnnJoinResult, brute_force_knn_join, get_metric
from repro.core.zorder import ZOrderTransform
from repro.datasets import (
    expand_dataset,
    gaussian_mixture_dataset,
    generate_forest,
    generate_osm,
)
from repro.joins import ZOrderConfig, plan_join, recall_against, registry, run_join, zorder
from repro.joins.kernels import KERNELS
from repro.joins.registry import JoinPlan, execute_join_plan
from repro.mapreduce.splits import coordinate_dtype, id_dtype
from repro.mapreduce.types import ROLE_R, ROLE_S, NeighborBlock, RecordBlock, ranks_within
from tests.reference_zorder import (
    int_z_values,
    outcome_facts,
    result_bytes,
    run_reference_zorder,
)
from tests.test_engines import outcome_fingerprint
from tests.test_plan_equivalence import env_params


class TestTransform:
    def test_quantize_range(self):
        transform = ZOrderTransform(np.zeros(2), np.ones(2), bits=4)
        cells = transform.quantize(np.array([[0.0, 1.0], [0.5, 0.5]]))
        assert cells[0].tolist() == [0, 15]
        assert 6 <= cells[1][0] <= 8

    def test_points_outside_box_clamped(self):
        transform = ZOrderTransform(np.zeros(1), np.ones(1), bits=4)
        cells = transform.quantize(np.array([[-5.0], [5.0]]))
        assert cells[0][0] == 0
        assert cells[1][0] == 15

    def test_z_value_interleaving_2d(self):
        transform = ZOrderTransform(np.zeros(2), np.full(2, 4.0 - 1e-9), bits=2)
        # cell (1, 0): x bit0=1 -> position 0; y bits zero -> z = 1
        z = transform.z_values(np.array([[1.0, 0.0]]))
        assert z[0] == 1
        # cell (0, 1): y bit0=1 -> position 1 -> z = 2
        z = transform.z_values(np.array([[0.0, 1.0]]))
        assert z[0] == 2
        # cell (3, 3) with 2 bits -> all four bits set -> z = 15
        z = transform.z_values(np.array([[3.0, 3.0]]))
        assert z[0] == 15

    def test_monotone_along_axis(self):
        """Fixing other coords, z-value grows with any single coordinate."""
        transform = ZOrderTransform(np.zeros(2), np.full(2, 16.0), bits=4)
        xs = np.column_stack([np.arange(16, dtype=float), np.full(16, 3.0)])
        zs = transform.z_values(xs)
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_locality(self):
        """Near points share long z-prefixes more often than far points."""
        rng = np.random.default_rng(0)
        points = rng.random((200, 2))
        transform = ZOrderTransform.for_points(points, bits=16)
        zs = transform.z_values(points)
        order = np.argsort(np.array(zs, dtype=object))
        # mean spatial distance between z-curve neighbors far below random pairs
        curve_neighbor = np.mean(
            [
                np.linalg.norm(points[order[i]] - points[order[i + 1]])
                for i in range(len(order) - 1)
            ]
        )
        random_pairs = np.mean(
            [
                np.linalg.norm(points[rng.integers(200)] - points[rng.integers(200)])
                for _ in range(500)
            ]
        )
        assert curve_neighbor < 0.4 * random_pairs

    @pytest.mark.parametrize(
        "points",
        [
            np.random.default_rng(6).random((40, 3)) * [1e4, 1.0, 1e-1],
            np.column_stack([np.linspace(-3.0, 9.0, 40), np.full(40, 2.5)]),
            np.full((5, 4), 7.0),
        ],
        ids=("spans-1e4-apart", "zero-span-dimension", "identical-points"),
    )
    def test_grid_is_a_cube(self, points):
        """One cell size for every dimension, whatever the spans are."""
        lo, hi = points.min(axis=0), points.max(axis=0)
        for transform in (
            ZOrderTransform.for_points(points, bits=12, padding=0.3),
            ZOrderTransform.for_box(lo, hi, bits=12, padding=0.3),
        ):
            sides = transform.hi - transform.lo
            assert np.allclose(sides, sides[0], rtol=1e-9, atol=0.0)
            assert sides[0] >= 1.6 * float((hi - lo).max())
            assert np.all(transform.lo < lo) and np.all(transform.hi > hi)

    def test_largest_shift_clamps_nothing(self):
        """The padding leaves room for any shift the join can draw (a quarter
        of the side per coordinate): no shifted point reaches a border cell."""
        points = np.random.default_rng(8).random((300, 5)) * [900.0, 40.0, 1.0, 0.0, 7.0]
        side = float((points.max(axis=0) - points.min(axis=0)).max())
        transform = ZOrderTransform.for_points(points, bits=16, padding=0.3)
        for shift in (0.0, 0.25 * side):
            cells = transform.quantize(points + shift)
            assert cells.min() > 0 and cells.max() < 2**16 - 1

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ZOrderTransform(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            ZOrderTransform(np.zeros(2), np.ones(2), bits=0)


class TestByteKeys:
    """``z_keys`` byte strings order, search and tie exactly like the
    Python-int Morton codes they replaced, at every width."""

    @given(
        seed=st.integers(0, 10_000),
        dims=st.integers(1, 12),
        bits=st.integers(1, 32),
        count=st.integers(1, 60),
    )
    @settings(max_examples=120, deadline=None)
    def test_keys_behave_like_int_codes(self, seed, dims, bits, count):
        rng = np.random.default_rng(seed)
        points = rng.random((count, dims))
        points[rng.integers(0, count, size=count // 3)] = points[0]  # duplicates
        transform = ZOrderTransform(np.zeros(dims), np.ones(dims), bits=bits)
        codes = int_z_values(transform, points)
        keys = transform.z_keys(points)
        assert keys.dtype == np.dtype(f"S{-(-bits * dims // 8)}")
        assert transform.z_values(points) == codes
        assert np.array_equal(transform.keys_of(codes), keys)
        # order with ties broken by a second column, as the reducer sorts S
        ids = rng.integers(0, 5, size=count)
        by_code = sorted(range(count), key=lambda row: (codes[row], ids[row], row))
        assert np.lexsort((np.arange(count), ids, keys)).tolist() == by_code
        assert np.argsort(keys, kind="stable").tolist() == sorted(
            range(count), key=lambda row: (codes[row], row)
        )
        # bisect positions, both sides, against a sorted column
        sorted_codes, sorted_keys = sorted(codes), np.sort(keys)
        probes = int_z_values(transform, rng.random((8, dims))) + codes[:4]
        probe_keys = transform.keys_of(probes)
        for side, search in (("left", bisect.bisect_left), ("right", bisect.bisect_right)):
            assert np.searchsorted(sorted_keys, probe_keys, side=side).tolist() == [
                search(sorted_codes, probe) for probe in probes
            ]
        # elementwise comparison, the healing test
        assert (keys <= probe_keys[0]).tolist() == [code <= probes[0] for code in codes]
        assert (keys >= probe_keys[0]).tolist() == [code >= probes[0] for code in codes]

    @given(
        seed=st.integers(0, 1000),
        dims=st.integers(1, 12),
        bits=st.integers(1, 32),
        count=st.integers(1, 200),
    )
    @settings(max_examples=25, deadline=None)
    def test_reducers_morton_codes_are_the_transforms_keys(self, seed, dims, bits, count):
        """The reducers' Morton entry point hands back the transform's
        byte-key array, and the keys spell the int codes."""
        rng = np.random.default_rng(seed)
        transform = ZOrderTransform(np.zeros(dims), np.ones(dims), bits=bits)
        points = rng.random((count, dims))
        expected = transform.z_keys(points)
        assert expected.dtype == np.dtype(f"S{transform.key_width}")
        assert [
            int.from_bytes(key.ljust(transform.key_width, b"\0"), "big")
            for key in expected.tolist()
        ] == int_z_values(transform, points)
        got = KERNELS.morton_codes(transform, points)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_widths_not_a_multiple_of_eight(self):
        transform = ZOrderTransform(np.zeros(3), np.ones(3), bits=7)  # 21 bits
        assert (transform.total_bits, transform.key_width) == (21, 3)
        top = transform.z_keys(np.full((1, 3), 2.0))  # clamps to the last cell
        assert top.tobytes() == (2**21 - 1).to_bytes(3, "big")
        assert transform.z_keys(np.zeros((1, 3))).tobytes() == bytes(3)

    def test_empty_input(self):
        transform = ZOrderTransform(np.zeros(2), np.ones(2), bits=5)
        assert transform.z_keys(np.empty((0, 2))).shape == (0,)
        assert transform.z_values(np.empty((0, 2))) == []
        assert transform.keys_of([]).dtype == np.dtype("S2")

    def test_for_box_matches_for_points(self):
        points = np.random.default_rng(2).random((50, 4)) * 7 - 3
        boxed = ZOrderTransform.for_box(points.min(axis=0), points.max(axis=0), 9, 0.3)
        fitted = ZOrderTransform.for_points(points, bits=9, padding=0.3)
        assert np.array_equal(boxed.lo, fitted.lo) and np.array_equal(boxed.hi, fitted.hi)


def tied_dataset(count: int, dims: int, distinct: int, seed: int) -> Dataset:
    """``count`` objects on only ``distinct`` locations: long runs of equal z."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((distinct, dims))[rng.integers(0, distinct, size=count)])


def entries(directory):
    """The plan-cache files in ``directory``, each with its inode and mtime."""
    return sorted(
        (path.name, path.stat().st_ino, path.stat().st_mtime_ns)
        for path in directory.glob("*.plan.seg")
    )


class TestColumnarMatchesPerRecordReference:
    """The array-shaped join against the per-record one it replaced
    (``tests/reference_zorder.py``): neighbour ids, distance *bytes*,
    ``pairs_computed``, S replicas and per-job shuffle records/bytes."""

    CASES = {
        "forest-x10-ties": (
            lambda: expand_dataset(generate_forest(40, seed=1), 10),
            dict(k=4, num_reducers=9),
        ),
        "heavy-ties-2d": (lambda: tied_dataset(300, 2, 12, seed=3), dict(k=5, num_reducers=6)),
        "osm-2d-payloads": (lambda: generate_osm(350, seed=2), dict(k=3, num_reducers=8)),
        "k-exceeds-block": (
            lambda: generate_forest(60, seed=5),
            dict(k=20, num_reducers=12, candidates_per_side=30),
        ),
        "one-block-per-shift": (lambda: generate_forest(80, seed=6), dict(k=3, num_reducers=3)),
        "single-shift-narrow-window": (
            lambda: generate_forest(150, seed=7),
            dict(k=6, num_reducers=5, num_shifts=1, candidates_per_side=2),
        ),
        "coarse-curve": (lambda: generate_forest(120, seed=8), dict(k=4, num_reducers=9)),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("metric", ("l2", "l1", "linf"))
    def test_equal_to_reference(self, case, metric, monkeypatch):
        if case == "coarse-curve":
            # the master builds the transform, so every engine's workers see it
            monkeypatch.setattr(zorder, "CURVE_BITS", 3)
        make_data, knobs = self.CASES[case]
        data = make_data()
        config = ZOrderConfig(metric_name=metric, split_size=97, seed=11, **knobs)
        reference = run_reference_zorder(data, data, config)
        # the CI legs inject their engine / spill budget here
        injected = config.with_changes(**env_params())
        assert outcome_facts(run_join("zorder", data, data, injected)) == reference
        assert len(reference["neighbors"]) == len(data)

    def test_distinct_r_and_s_leave_one_sided_reducers(self):
        """R in one corner, S spread out: some reducers see only S (and
        answer nothing), and every r lands at a block end."""
        rng = np.random.default_rng(4)
        r = Dataset(rng.random((40, 3)) * 0.05, ids=np.arange(1000, 1040))
        s = Dataset(rng.random((400, 3)))
        config = ZOrderConfig(k=5, num_reducers=12, split_size=64, num_shifts=2)
        outcome = run_join("zorder", r, s, config)
        assert outcome_facts(outcome) == run_reference_zorder(r, s, config)
        answered = [task.output_records for task in outcome.job_stats[0].reduce_tasks]
        assert 0 in answered and sum(answered) >= len(r)

    def test_r_only_reducers_answer_nothing(self):
        """Five S objects under twelve blocks: the first boundary is S's
        smallest z, so every r below it meets a reducer holding no S."""
        rng = np.random.default_rng(9)
        r = Dataset(rng.random((60, 2)), ids=np.arange(100, 160))
        s = Dataset(rng.random((5, 2)) * 0.5 + 0.5)
        config = ZOrderConfig(k=2, num_reducers=12, num_shifts=1, split_size=16)
        outcome = run_join("zorder", r, s, config)
        assert outcome_facts(outcome) == run_reference_zorder(r, s, config)
        tasks = outcome.job_stats[0].reduce_tasks
        assert any(task.input_records and not task.output_records for task in tasks)
        assert len(outcome.result) < len(r)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(memory_budget=64),
            dict(engine="processes-pooled", max_workers=2),
            dict(engine="processes-pooled", max_workers=2, memory_budget=64),
            dict(memory_budget=4096),
            dict(plan_cache_dir="served"),
            dict(memory_budget=64, plan_cache_dir="served"),
        ],
        ids=lambda knobs: ",".join(f"{key}={value}" for key, value in knobs.items()),
    )
    def test_backends_and_engines(self, knobs, tmp_path):
        data = expand_dataset(generate_forest(40, seed=1), 10)
        config = ZOrderConfig(k=4, num_reducers=9, split_size=97, seed=11)
        reference = run_reference_zorder(data, data, config)
        if "memory_budget" in knobs:
            knobs = dict(knobs, spill_dir=str(tmp_path))
        if "plan_cache_dir" in knobs:
            # the run checked is served every stage a first run stored
            knobs = dict(knobs, plan_cache_dir=str(tmp_path / "plans"))
            cold = run_join("zorder", data, data, config.with_changes(**knobs))
            assert outcome_facts(cold) == reference
            stored = entries(tmp_path / "plans")
            assert len(stored) == len(cold.job_stats)
        outcome = run_join("zorder", data, data, config.with_changes(**knobs))
        assert outcome_facts(outcome) == reference
        if "plan_cache_dir" in knobs:
            assert entries(tmp_path / "plans") == stored  # read, none rewritten

    def test_payload_bytes_never_travel(self):
        """The wire row is ``(is_r, id, point, z)``: OSM's payload sizes must
        not reach the shuffle accounting."""
        data = generate_osm(200, seed=1)
        bare = Dataset(data.points, ids=data.ids)
        config = ZOrderConfig(k=3, num_reducers=6, split_size=64)
        assert data.payload_bytes.sum() > 0
        assert (
            run_join("zorder", data, data, config).shuffle_bytes()
            == run_join("zorder", bare, bare, config).shuffle_bytes()
        )


def job_facts(outcome) -> str:
    """A digest of an outcome's job statistics, timings, spill layout and
    fault counters aside: what every engine and backend agrees on."""
    facts = [
        (
            stats.job_name,
            stats.shuffle_records,
            stats.shuffle_bytes,
            stats.cache_bytes,
            stats.output_bytes,
            [
                (task.task_id, task.kind, task.input_records, task.output_records)
                for task in stats.map_tasks + stats.reduce_tasks
            ],
        )
        for stats in outcome.job_stats
    ]
    return hashlib.sha1(repr(facts).encode()).hexdigest()[:16]


class TestSelfJoinShipsOneRowPerCopy:
    """A self-join ships each object once per curve copy: the row to its own
    block carries both roles and its healing copies only S, so no job holds
    an R-only row and no healing copy answers an ``r``.  The same join over
    an equal copy of the data (R ≠ S) ships an R row besides, as it always
    did, and finds the same neighbours through the same candidate lists."""

    WORLDS = {
        "tied": (lambda: tied_dataset(240, 3, 10, seed=12), dict(k=4, num_reducers=6)),
        "one-block-per-shift": (lambda: generate_forest(90, seed=13), dict(k=3, num_reducers=2)),
        "one-shift": (
            lambda: generate_forest(120, seed=14),
            dict(k=5, num_reducers=5, num_shifts=1),
        ),
    }
    #: :func:`job_facts` of the R ≠ S join per (world, metric), recorded
    #: when the last curve copy began to fold the earlier copies' lists
    #: (before, with a merge job: "ae138e8479bb4d78", "ae138e8479bb4d78",
    #: "7caff2e0bb89d2d9", "7936f3a0a212b943", "7936f3a0a212b943",
    #: "12742cee4f97935d", "98f8eb71e6a97ea7", "98f8eb71e6a97ea7" and
    #: "d07386afe2c0e4c3"; only the jobs' shape moved, not the pairs,
    #: replicas or neighbours)
    PINNED = {
        ("tied", "l1"): "85d7b2d5648605ce",
        ("tied", "l2"): "85d7b2d5648605ce",
        ("tied", "linf"): "e744d554066c0468",
        ("one-block-per-shift", "l1"): "e70ec997272a9862",
        ("one-block-per-shift", "l2"): "e70ec997272a9862",
        ("one-block-per-shift", "linf"): "4c7b36c1335ed6a2",
        ("one-shift", "l1"): "a75c7ef82f23667e",
        ("one-shift", "l2"): "a75c7ef82f23667e",
        ("one-shift", "linf"): "5a0bf3638b627ce3",
    }

    def world(self, world, metric, **knobs):
        make_data, world_knobs = self.WORLDS[world]
        config = ZOrderConfig(metric_name=metric, split_size=53, seed=7, **world_knobs)
        return make_data(), config.with_changes(**knobs)

    @pytest.mark.parametrize("world, metric", sorted(PINNED))
    def test_rows_are_s_copies_and_lists_ship_once_per_earlier_copy(self, world, metric):
        data, config = self.world(world, metric, **env_params())
        self_join = run_join("zorder", data, data, config)
        copied = run_join("zorder", data, copy.deepcopy(data), config)
        lists = (config.num_shifts - 1) * len(data)
        assert self_join.shuffle_records() == self_join.replication_of_s() + lists
        assert self_join.replication_of_s() == copied.replication_of_s()
        # one R row per object and curve copy more, in the job of its copy
        assert [
            theirs.shuffle_records - ours.shuffle_records
            for ours, theirs in zip(self_join.job_stats, copied.job_stats)
        ] == [(config.num_shifts - 1) * len(data), len(data)][-len(self_join.job_stats):]
        # the lists the first job hands the last are the same lists
        assert [stats.output_bytes for stats in self_join.job_stats] == [
            stats.output_bytes for stats in copied.job_stats
        ]
        # a row meets its own entry, of both roles, at 0.0 uncomputed (once
        # per curve copy, unless ties on its z-value push it out of its
        # window), and a mirrored pair is computed once
        # (TestMirroredPairsComputedOnce counts both exactly)
        saved = copied.distance_pairs - self_join.distance_pairs
        assert saved > (0 if world == "tied" else config.num_shifts * len(data))
        assert result_bytes(self_join.result) == result_bytes(copied.result)

    @pytest.mark.parametrize("world, metric", sorted(PINNED))
    def test_every_list_meets_its_r_in_the_last_copy(self, world, metric, monkeypatch):
        """Every ``r``'s list leaves the first job once per earlier curve
        copy, under the key its R row takes in the last copy: each last-copy
        reducer is handed lists only of its own ``r`` (serial engine, so the
        reducers see the wrapper)."""
        data, config = self.world(world, metric, engine="serial")
        listed = []
        reduce = zorder.ZOrderJoinReducer.reduce

        def recording(reducer, key, values, ctx):
            values = list(values)
            if reducer._last is None:
                rows = RecordBlock.gather([v for v in values if isinstance(v, RecordBlock)])
                asked = set(rows.object_ids[rows.is_r].tolist())
                for value in values:
                    if isinstance(value, NeighborBlock):
                        assert set(value.r_ids.tolist()) <= asked
                        listed.append(value.r_ids.astype(np.int64))
            return reduce(reducer, key, values, ctx)

        monkeypatch.setattr(zorder.ZOrderJoinReducer, "reduce", recording)
        outcome = run_join("zorder", data, data, config)
        counts = np.bincount(np.concatenate([np.empty(0, np.int64), *listed]), minlength=len(data))
        assert np.array_equal(counts[data.ids], np.full(len(data), config.num_shifts - 1))
        # the rows a self-join ships are its S copies; the rest are lists
        assert outcome.shuffle_records() == outcome.replication_of_s() + counts.sum()

    @pytest.mark.parametrize("world, metric", sorted(PINNED))
    def test_r_not_s_join_ships_as_before(self, world, metric):
        data, config = self.world(world, metric, **env_params())
        outcome = run_join("zorder", data, copy.deepcopy(data), config)
        assert job_facts(outcome) == self.PINNED[world, metric]


def distinct_window_pairs(block: RecordBlock, z_values: list[int], per_side: int) -> set:
    """Brute force: the unordered pairs of different rows that one reducer's
    windows hold, a window per ``r`` row and a pair per window entry."""
    ids = block.object_ids.tolist()
    r_rows = [row for row in range(len(block)) if block.role[row] & ROLE_R]
    s_rows = sorted(
        (row for row in range(len(block)) if block.role[row] & ROLE_S),
        key=lambda row: (z_values[row], ids[row]),
    )
    s_z = [z_values[row] for row in s_rows]
    pairs = set()
    for r_row in r_rows:
        center = bisect.bisect_left(s_z, z_values[r_row])
        for s_row in s_rows[max(0, center - per_side) : center + per_side]:
            if s_row != r_row:
                pairs.add(frozenset((r_row, s_row)))
    return pairs


def pairs_bytes_neighbours(outcome) -> str:
    """A digest of an outcome's counted pairs, per-job shuffle bytes and
    neighbour bytes."""
    facts = (
        outcome.distance_pairs,
        [stats.shuffle_bytes for stats in outcome.job_stats],
        sorted(result_bytes(outcome.result).items()),
    )
    return hashlib.sha1(repr(facts).encode()).hexdigest()[:16]


def no_mirrors(rows, r_rows, s_rows, start, lengths, owner, window):
    """The pair rule of ``RESULTS_VERSION`` 20: no entry has a mirror, so
    every entry but a row's own is computed."""
    return np.full(window.size, -1)


class TestMirroredPairsComputedOnce:
    """A self-join's reducer computes each unordered pair of different rows
    its windows hold once, whichever row asks, on data whose duplicate
    z-keys put a row's window centre off its own position; neighbours stay
    the per-record reference's.  An R != S join has no mirrors: its pairs
    and neighbours are those recorded before the rule."""

    K = 4
    #: 160 rows on 50 locations: runs of equal z-keys, yet a k-th neighbour
    #: off the row's own location
    DATA = staticmethod(lambda: tied_dataset(160, 3, 50, seed=31))
    #: :func:`pairs_bytes_neighbours` of the R != S join per metric, recorded
    #: before mirrored pairs were computed once, and re-pinned when the last
    #: curve copy began to fold the earlier copies' lists, which moved only
    #: the per-job bytes (before: "d395cdb2d91df838", "c44eb1aa8728af39" and
    #: "92ad12ae5a9f14f3")
    PINNED = {
        "l1": "1b233b22d038dc64",
        "l2": "38216ecd2fc6599e",
        "linf": "efbb3190a08632c0",
    }

    def config(self, metric, **knobs):
        return ZOrderConfig(
            k=self.K, num_reducers=6, metric_name=metric, split_size=53, seed=3, **knobs
        )

    @pytest.mark.parametrize("per_side", (1, K, 3 * K))
    @pytest.mark.parametrize("num_shifts", (1, 2, 3))
    @pytest.mark.parametrize("metric", ("l1", "l2", "linf"))
    def test_pairs_are_the_distinct_window_pairs(self, metric, num_shifts, per_side, monkeypatch):
        """Serial engine, so the reducers see the recording wrapper."""
        data = self.DATA()
        config = self.config(metric, num_shifts=num_shifts, candidates_per_side=per_side)
        window_pairs, tied_blocks = [], []
        reduce = zorder.ZOrderJoinReducer.reduce

        def recording(reducer, key, values, ctx):
            values = list(values)
            block = RecordBlock.gather([v for v in values if isinstance(v, RecordBlock)])
            shift = reducer._shifts[int(key) // reducer._blocks_per_shift]
            z_values = int_z_values(reducer._transform, block.points + shift)
            window_pairs.append(distinct_window_pairs(block, z_values, per_side))
            tied_blocks.append(len(set(z_values)) < len(z_values))
            return reduce(reducer, key, values, ctx)

        monkeypatch.setattr(zorder.ZOrderJoinReducer, "reduce", recording)
        outcome = run_join(
            "zorder", data, data, config.with_changes(**{**env_params(), "engine": "serial"})
        )
        assert any(tied_blocks)
        assert outcome.distance_pairs == sum(map(len, window_pairs))
        reference = run_reference_zorder(data, data, config)
        assert result_bytes(outcome.result) == reference["neighbors"]
        assert outcome.distance_pairs == reference["pairs_computed"]

    @pytest.mark.parametrize("seed", range(4))
    def test_mirror_entries_on_any_windows(self, seed):
        """Any windows over any S order, rows of one or both roles: each
        entry's mirror is the entry of the reversed pair, found by brute
        force, or -1."""
        rng = np.random.default_rng(seed)
        for _ in range(50):
            roles = rng.choice([ROLE_R, ROLE_S, ROLE_R | ROLE_S], size=rng.integers(2, 30))
            r_rows = np.flatnonzero(roles & ROLE_R)
            s_rows = rng.permutation(np.flatnonzero(roles & ROLE_S))
            if not (r_rows.size and s_rows.size):
                continue
            start = rng.integers(0, s_rows.size, size=r_rows.size)
            lengths = rng.integers(1, s_rows.size - start + 1)
            owner = np.repeat(np.arange(r_rows.size), lengths)
            window = s_rows[start[owner] + ranks_within(lengths)]
            entries = list(zip(r_rows[owner].tolist(), window.tolist()))
            index_of = {pair: entry for entry, pair in enumerate(entries)}
            expected = [index_of.get((b, a), -1) for a, b in entries]
            layout = (r_rows, s_rows, start, lengths, owner, window)
            assert zorder.mirror_entries(len(roles), *layout).tolist() == expected

    @pytest.mark.parametrize("metric", sorted(PINNED))
    def test_r_not_s_join_is_unchanged(self, metric):
        data = self.DATA()
        config = self.config(metric, num_shifts=3).with_changes(**env_params())
        outcome = run_join("zorder", data, copy.deepcopy(data), config)
        assert pairs_bytes_neighbours(outcome) == self.PINNED[metric]

    def test_a_stage_saved_before_the_rule_is_re_run(self, tmp_path, monkeypatch):
        """A z-order self-join persisted under code version 20, which
        computed both entries of a mirrored pair, holds the old pair count:
        it is a miss, and the re-run reports the new count (serial engine,
        so the version-20 rule reaches the reducers)."""
        data = self.DATA()
        config = self.config("l2", engine="serial", plan_cache_dir=str(tmp_path))
        cold = run_join("zorder", data, data, config.with_changes(plan_cache_dir=None))
        monkeypatch.setattr(registry, "RESULTS_VERSION", 20)
        monkeypatch.setattr(zorder, "mirror_entries", no_mirrors)
        stale = run_join("zorder", data, data, config)
        monkeypatch.undo()
        assert sorted(tmp_path.glob("*.plan.seg"))
        assert stale.distance_pairs > cold.distance_pairs
        assert result_bytes(stale.result) == result_bytes(cold.result)
        plan = plan_join("zorder", data, data, config)
        run = execute_join_plan(
            JoinPlan(graph=plan.graph, assemble=lambda run: run, identity=plan.identity), config
        )
        assert run.cached_stage_names() == []
        rerun = plan.assemble(run)
        assert rerun.distance_pairs == cold.distance_pairs
        assert outcome_fingerprint(rerun) == outcome_fingerprint(cold)


def facts_digest(outcome) -> str:
    """A digest of an outcome's computed pairs, S replicas and neighbour
    bytes: what folding the lists into the last copy must not move."""
    facts = (
        outcome.distance_pairs,
        outcome.replication_of_s(),
        sorted(result_bytes(outcome.result).items()),
    )
    return hashlib.sha1(repr(facts).encode()).hexdigest()[:16]


class TestLastCopyFolds:
    """The last curve copy's reducers fold the earlier copies' candidate
    lists into the result: the plan has ``min(num_shifts, 2)`` jobs and no
    merge job, each ``r``'s list ships once per earlier copy, and neighbours,
    distances, pairs and replicas are those of the merge job the fold
    replaced (pinned on the commit before it)."""

    K = 4
    DATA = staticmethod(functools.cache(lambda: generate_forest(180, seed=21)))
    #: :func:`facts_digest` per (input shape, num_shifts, candidates_per_side),
    #: recorded while a merge job folded every copy's lists
    PINNED = {
        ("self-join", 1, 4): "c658b524b77d3f64",
        ("self-join", 1, 8): "af93aa529b7d27cc",
        ("self-join", 2, 4): "021d3876b16e4a08",
        ("self-join", 2, 8): "8c597d68906c3946",
        ("self-join", 3, 4): "1fc6320bf4e7587b",
        ("self-join", 3, 8): "a2f2ae4475e61c0f",
        ("self-join", 4, 4): "10ffdb45d1c577bc",
        ("self-join", 4, 8): "5d575f5a05d52699",
        ("r-and-s", 1, 4): "11a4dc8d5f2593d1",
        ("r-and-s", 1, 8): "6baadb9b71c0100b",
        ("r-and-s", 2, 4): "cf3289c7c49616de",
        ("r-and-s", 2, 8): "94c34f9a22cce354",
        ("r-and-s", 3, 4): "95acc5902ad32d5b",
        ("r-and-s", 3, 8): "298198b35b0e807c",
        ("r-and-s", 4, 4): "31ce7b7cc423ed21",
        ("r-and-s", 4, 8): "9e66414086294af3",
    }

    def run(self, shape, num_shifts, per_side, **knobs):
        data = self.DATA()
        config = ZOrderConfig(
            k=self.K, num_reducers=8, split_size=53, seed=5, num_shifts=num_shifts,
            candidates_per_side=per_side, **knobs,
        )  # fmt: skip
        other = data if shape == "self-join" else copy.deepcopy(data)
        return data, run_join("zorder", data, other, config)

    @pytest.mark.parametrize("shape, num_shifts, per_side", sorted(PINNED))
    def test_results_and_pairs_are_the_merge_jobs(self, shape, num_shifts, per_side):
        _, outcome = self.run(shape, num_shifts, per_side, **env_params())
        assert facts_digest(outcome) == self.PINNED[shape, num_shifts, per_side]

    @pytest.mark.parametrize("shape", ("self-join", "r-and-s"))
    @pytest.mark.parametrize("num_shifts", (1, 2, 3, 4))
    def test_lists_ship_once_per_earlier_copy(self, shape, num_shifts):
        """Closed form: ``(num_shifts − 1) · |R|`` list rows, ``12 + (w +
        8) · k`` bytes each under an 8-byte key (``w``: the join's id
        width), ride beside the last copy's object rows."""
        data, outcome = self.run(shape, num_shifts, self.K, **env_params())
        names = ["zorder/join", "zorder/last"][-min(num_shifts, 2):]
        assert list(outcome.job_stats.names) == names
        assert outcome.job_phase_names == ["knn_join"] * len(names)
        rows = outcome.replication_of_s() + (0 if shape == "self-join" else num_shifts * len(data))
        lists = (num_shifts - 1) * len(data)
        assert outcome.shuffle_records() == rows + lists
        width = id_dtype(data.ids).itemsize
        row_bytes = outcome.shuffle_bytes() - lists * (8 + 12 + (width + 8) * self.K)
        coordinates = data.dimensions * coordinate_dtype(data.points).itemsize
        assert row_bytes == rows * (8 + 1 + width + coordinates + 1 + 8)
        if num_shifts > 1:
            first, last = outcome.job_stats
            assert sum(task.output_records for task in first.reduce_tasks) == lists
            assert last.shuffle_records - lists == rows - first.shuffle_records

    #: :func:`facts_digest` of :meth:`sparse_world` per (num_shifts, metric),
    #: recorded while a merge job folded every copy's lists
    SPARSE = {
        (2, "l1"): "65e81a0196f6e678",
        (2, "l2"): "e0f5dfb9ed10b7a9",
        (2, "linf"): "69a24d9162f2d5a8",
        (3, "l1"): "f9defc6e93680e5d",
        (3, "l2"): "394629fe3fa31f73",
        (3, "linf"): "10e0edeff176034e",
    }

    @staticmethod
    def sparse_world():
        """Every S object on one point: each copy's blocks below it hold R
        rows and no S row, so an ``r`` below it in the last copy is answered
        by the earlier copies' lists alone."""
        rng = np.random.default_rng(9)
        r = Dataset(rng.random((60, 2)), ids=np.arange(100, 160))
        return r, Dataset(np.full((5, 2), 0.5))

    @pytest.mark.parametrize("num_shifts, metric", sorted(SPARSE))
    def test_lists_reach_the_result_through_a_block_without_s(
        self, num_shifts, metric, monkeypatch
    ):
        """Serial engine, so the reducers see the recording wrapper."""
        r, s = self.sparse_world()
        config = ZOrderConfig(
            k=2, num_reducers=4 * num_shifts, num_shifts=num_shifts, split_size=16, seed=1,
            metric_name=metric,
        )  # fmt: skip
        folded_only = []
        reduce = zorder.ZOrderJoinReducer.reduce

        def recording(reducer, key, values, ctx):
            values = list(values)
            rows = RecordBlock.gather([v for v in values if isinstance(v, RecordBlock)])
            if reducer._last is None and not rows.is_s.any():
                folded_only.extend(v.r_ids for v in values if isinstance(v, NeighborBlock))
            return reduce(reducer, key, values, ctx)

        monkeypatch.setattr(zorder.ZOrderJoinReducer, "reduce", recording)
        outcome = run_join("zorder", r, s, config)
        answered_by_lists = set(np.concatenate(folded_only).tolist())
        assert answered_by_lists and answered_by_lists <= set(outcome.result.r_ids())
        assert len(outcome.result) < len(r)
        assert facts_digest(outcome) == self.SPARSE[num_shifts, metric]
        assert outcome_facts(outcome) == run_reference_zorder(r, s, config)


class TestZOrderConfig:
    def test_is_a_dataclass_like_its_siblings(self):
        names = {spec.name for spec in dataclasses.fields(ZOrderConfig)}
        assert {"num_shifts", "candidates_per_side"} <= names
        assert ZOrderConfig(num_shifts=1) != ZOrderConfig(num_shifts=3)
        assert ZOrderConfig(num_shifts=2, candidates_per_side=8) == ZOrderConfig(
            num_shifts=2, candidates_per_side=8
        )

    def test_with_changes_keeps_the_zorder_knobs(self):
        config = ZOrderConfig(num_shifts=5, candidates_per_side=7)
        moved = config.with_changes(k=4)
        assert (moved.num_shifts, moved.candidates_per_side) == (5, 7)
        assert moved.k == 4 and type(moved) is ZOrderConfig

    def test_candidates_per_side_follows_k_until_set(self):
        data = generate_forest(120, seed=2)
        config = ZOrderConfig(k=3, num_reducers=6, split_size=64)
        assert config.candidates_per_side is None
        wide = run_join("zorder", data, data, config.with_changes(k=6))
        pinned = run_join("zorder", data, data, config.with_changes(k=6, candidates_per_side=3))
        assert wide.distance_pairs > pinned.distance_pairs

    @pytest.mark.parametrize(
        "knobs",
        # (the last two: the base config's own checks still run)
        [dict(num_shifts=0), dict(candidates_per_side=-1), dict(k=0), dict(split_size=0)],
    )
    def test_invalid_knobs_rejected(self, knobs):
        with pytest.raises(ValueError):
            ZOrderConfig(**knobs)
        with pytest.raises(ValueError):
            ZOrderConfig().with_changes(**knobs)


def exact_self_join(data: Dataset, k: int) -> KnnJoinResult:
    """The brute-force L2 self-join the approximate one is scored against."""
    return KnnJoinResult.from_dict(
        k,
        brute_force_knn_join(
            get_metric("l2"), data.points, data.ids, data.points, data.ids, k
        ),
    )


class TestApproximateJoin:
    @pytest.fixture(scope="class")
    def world(self):
        data = gaussian_mixture_dataset(500, 3, num_clusters=6, seed=4)
        k = 8
        return data, k, exact_self_join(data, k)

    def test_every_r_answered(self, world):
        data, k, truth = world
        outcome = run_join(
            "zorder", data, data, ZOrderConfig(k=k, num_reducers=8, num_shifts=2, seed=3)
        )
        assert set(outcome.result.r_ids()) == set(int(i) for i in data.ids)

    def test_no_duplicate_neighbors(self, world):
        data, k, truth = world
        outcome = run_join(
            "zorder", data, data, ZOrderConfig(k=k, num_reducers=8, num_shifts=4, seed=3)
        )
        for r_id in outcome.result.r_ids():
            ids, _ = outcome.result.neighbors_of(r_id)
            assert np.unique(ids).size == ids.size

    def test_recall_improves_with_shifts(self, world):
        data, k, truth = world
        recalls = []
        for shifts in (1, 3):
            outcome = run_join(
                "zorder", data, data, ZOrderConfig(k=k, num_reducers=9, num_shifts=shifts, seed=5)
            )
            recall, ratio = recall_against(outcome.result, truth)
            recalls.append(recall)
            assert ratio >= 0.999  # approximate kth radius never beats exact
        assert recalls[1] > recalls[0]
        assert recalls[1] > 0.6

    def test_cheaper_than_exact_scan(self, world):
        data, k, truth = world
        outcome = run_join(
            "zorder", data, data, ZOrderConfig(k=k, num_reducers=8, num_shifts=2, seed=3)
        )
        assert outcome.selectivity() < 0.25  # way below the naive 1.0

    def test_invalid_shifts(self):
        with pytest.raises(ValueError):
            ZOrderConfig(num_shifts=0)


class TestRecallFloor:
    """The stated quality of the approximate join: config defaults (two curve
    copies, ``candidates_per_side = k``) reach recall 0.7 on data whose
    dimensions span very different ranges.  A grid scaled per dimension
    scored under 0.45 on both worlds."""

    K = 10

    def recall(self, data: Dataset, truth: KnnJoinResult, **knobs) -> float:
        outcome = run_join("zorder", data, data, ZOrderConfig(k=self.K, **knobs))
        return recall_against(outcome.result, truth)[0]

    @pytest.fixture(scope="class")
    def forest(self):
        data = expand_dataset(generate_forest(200, seed=1), 10)
        return data, exact_self_join(data, self.K)

    @pytest.mark.parametrize("seed", (0, 1))
    def test_defaults_on_forest_x10(self, forest, seed):
        assert self.recall(*forest, seed=seed) >= 0.7

    def test_three_copies_on_forest_x10(self, forest):
        assert self.recall(*forest, num_shifts=3) >= 0.8

    def test_defaults_on_one_wide_nine_narrow_dimensions(self):
        points = np.random.default_rng(7).random((1500, 10))
        points[:, 0] *= 1000.0
        data = Dataset(points)
        assert self.recall(data, exact_self_join(data, self.K)) >= 0.7


class TestRecallMetric:
    def test_perfect_recall(self):
        a = KnnJoinResult(2)
        a.add(1, np.array([5, 6]), np.array([0.1, 0.2]))
        recall, ratio = recall_against(a, a)
        assert recall == 1.0
        assert ratio == pytest.approx(1.0)

    def test_zero_recall(self):
        exact = KnnJoinResult(1)
        exact.add(1, np.array([5]), np.array([0.1]))
        approx = KnnJoinResult(1)
        approx.add(1, np.array([9]), np.array([5.0]))
        recall, ratio = recall_against(approx, exact)
        assert recall == 0.0
        assert ratio == pytest.approx(50.0)

    def test_missing_r_counts_as_misses(self):
        exact = KnnJoinResult(1)
        exact.add(1, np.array([5]), np.array([0.1]))
        exact.add(2, np.array([6]), np.array([0.2]))
        approx = KnnJoinResult(1)
        approx.add(1, np.array([5]), np.array([0.1]))
        recall, _ = recall_against(approx, exact)
        assert recall == 0.5
