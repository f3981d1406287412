"""Unit tests for the z-order transform and the approximate join extension."""

import bisect
import dataclasses

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
from repro.joins import ZOrderConfig, recall_against, run_join
from tests.reference_zorder import int_z_values, outcome_facts, run_reference_zorder
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
        "coarse-curve": (lambda: generate_forest(120, seed=8), dict(k=4, num_reducers=9, bits=3)),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("metric", ("l2", "l1", "linf"))
    def test_equal_to_reference(self, case, metric):
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
            dict(memory_budget=64, stage_fusion=True),
            dict(stage_fusion=True),
            dict(engine="processes-pooled", max_workers=2),
            dict(engine="processes-pooled", max_workers=2, memory_budget=64),
            dict(kernel_provider="numpy"),
            dict(kernel_provider="numba", memory_budget=4096, stage_fusion=True),
        ],
        ids=lambda knobs: ",".join(f"{key}={value}" for key, value in knobs.items()),
    )
    def test_backends_engines_and_fusion(self, knobs, tmp_path):
        data = expand_dataset(generate_forest(40, seed=1), 10)
        config = ZOrderConfig(k=4, num_reducers=9, split_size=97, seed=11)
        reference = run_reference_zorder(data, data, config)
        if "memory_budget" in knobs:
            knobs = dict(knobs, spill_dir=str(tmp_path))
        outcome = run_join("zorder", data, data, config.with_changes(**knobs))
        assert outcome_facts(outcome) == reference

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


class TestZOrderConfig:
    def test_is_a_dataclass_like_its_siblings(self):
        names = {spec.name for spec in dataclasses.fields(ZOrderConfig)}
        assert {"num_shifts", "bits", "candidates_per_side", "sample_size"} <= names
        assert ZOrderConfig(num_shifts=1) != ZOrderConfig(num_shifts=3)
        assert ZOrderConfig(num_shifts=2, bits=8) == ZOrderConfig(num_shifts=2, bits=8)

    def test_with_changes_keeps_the_zorder_knobs(self):
        config = ZOrderConfig(num_shifts=5, bits=9, candidates_per_side=7, sample_size=99)
        moved = config.with_changes(k=4)
        assert (moved.num_shifts, moved.bits, moved.candidates_per_side, moved.sample_size) == (
            5, 9, 7, 99,
        )
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
        [dict(num_shifts=0), dict(bits=0), dict(bits=33), dict(sample_size=0),
         dict(candidates_per_side=-1)],
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
