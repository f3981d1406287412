"""Unit tests for the counted metric layer."""

import math

import numpy as np
import pytest

from repro.core.distance import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MinkowskiMetric,
    get_metric,
)
from repro.joins.kernel_providers import get_kernel_provider


class TestEuclidean:
    def test_pair_matches_formula(self):
        metric = EuclideanMetric()
        assert metric.distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_zero_distance_to_self(self):
        metric = EuclideanMetric()
        point = np.array([1.5, -2.0, 7.0])
        assert metric.distance(point, point) == 0.0

    def test_one_to_many_matches_pairs(self):
        metric = EuclideanMetric()
        rng = np.random.default_rng(0)
        a = rng.random(4)
        bs = rng.random((10, 4))
        batch = metric.distances(a, bs)
        singles = [EuclideanMetric().distance(a, b) for b in bs]
        assert np.allclose(batch, singles)


class TestOtherMetrics:
    def test_manhattan(self):
        metric = ManhattanMetric()
        assert metric.distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev(self):
        metric = ChebyshevMetric()
        assert metric.distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_minkowski_p3(self):
        metric = MinkowskiMetric(3)
        expected = (3**3 + 4**3) ** (1 / 3)
        assert metric.distance([0, 0], [3, 4]) == pytest.approx(expected)

    def test_minkowski_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            MinkowskiMetric(0.5)

    def test_minkowski_p1_equals_manhattan(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(5), rng.random(5)
        assert MinkowskiMetric(1).distance(a, b) == pytest.approx(
            ManhattanMetric().distance(a, b)
        )


class TestCounting:
    def test_single_pair_counts_one(self):
        metric = EuclideanMetric()
        metric.distance([0.0], [1.0])
        assert metric.pairs_computed == 1

    def test_batch_counts_rows(self):
        metric = EuclideanMetric()
        metric.distances(np.zeros(2), np.ones((7, 2)))
        assert metric.pairs_computed == 7

    def test_cross_counts_product(self):
        metric = EuclideanMetric()
        metric.cross_distances(np.zeros((3, 2)), np.ones((5, 2)))
        assert metric.pairs_computed == 15

    def test_pairwise_sum_counts_combinations(self):
        metric = EuclideanMetric()
        metric.pairwise_sum(np.random.default_rng(0).random((6, 2)))
        assert metric.pairs_computed == 15  # C(6, 2)

    def test_uncounted_variants_do_not_count(self):
        metric = EuclideanMetric()
        metric.uncounted_distance([0.0], [1.0])
        metric.uncounted_distances(np.zeros(2), np.ones((4, 2)))
        assert metric.pairs_computed == 0

    def test_reset(self):
        metric = EuclideanMetric()
        metric.distance([0.0], [1.0])
        metric.reset_counter()
        assert metric.pairs_computed == 0

    def test_empty_batch(self):
        metric = EuclideanMetric()
        out = metric.distances(np.zeros(2), np.empty((0, 2)))
        assert out.size == 0
        assert metric.pairs_computed == 0


class TestPairwiseSumValue:
    def test_matches_direct_double_loop(self):
        metric = EuclideanMetric()
        points = np.random.default_rng(2).random((8, 3))
        total = metric.pairwise_sum(points)
        expected = sum(
            math.dist(points[i], points[j])
            for i in range(8)
            for j in range(i + 1, 8)
        )
        assert total == pytest.approx(expected)


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("l2", EuclideanMetric),
            ("euclidean", EuclideanMetric),
            ("l1", ManhattanMetric),
            ("manhattan", ManhattanMetric),
            ("linf", ChebyshevMetric),
            ("maximum", ChebyshevMetric),
        ],
    )
    def test_lookup(self, name, cls):
        assert isinstance(get_metric(name), cls)

    def test_fresh_counter_each_time(self):
        first = get_metric("l2")
        first.distance([0.0], [1.0])
        assert get_metric("l2").pairs_computed == 0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("cosine")

    def test_rejects_non_2d_batch(self):
        with pytest.raises(ValueError):
            get_metric("l2").distances(np.zeros(2), np.zeros(2))


class TestMinkowskiFamilyNames:
    """``get_metric`` resolves the whole L_p family from "l<p>" names."""

    @pytest.mark.parametrize("name,p", [("l3", 3.0), ("l4", 4.0), ("l2.5", 2.5)])
    def test_lp_names_resolve(self, name, p):
        metric = get_metric(name)
        assert isinstance(metric, MinkowskiMetric)
        assert metric.p == p

    def test_name_round_trips(self):
        metric = get_metric("l3")
        assert metric.name == "l3"
        assert get_metric(metric.name).p == 3.0

    def test_specialized_kernels_keep_priority(self):
        # "l1"/"l2" resolve to the dedicated classes, not MinkowskiMetric
        assert type(get_metric("l1")) is ManhattanMetric
        assert type(get_metric("l2")) is EuclideanMetric

    def test_l3_distance_value(self):
        metric = get_metric("l3")
        value = metric.distance(np.zeros(2), np.array([1.0, 1.0]))
        assert value == pytest.approx(2.0 ** (1.0 / 3.0))
        assert metric.pairs_computed == 1

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            get_metric("l0.5")

    def test_non_numeric_suffix_still_unknown(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("lx")


class TestPairDistances:
    """Row-aligned gather kernel: counted, and identical to per-query scans."""

    @pytest.mark.parametrize("name", ["l1", "l2", "linf", "l3"])
    def test_matches_one_to_many_bitwise(self, name):
        rng = np.random.default_rng(4)
        query = rng.random(5)
        points = rng.random((40, 5))
        metric = get_metric(name)
        via_scan = metric.distances(query, points)
        via_gather = metric.pair_distances(np.broadcast_to(query, points.shape), points)
        assert np.array_equal(via_scan, via_gather)

    def test_counts_rows(self):
        metric = get_metric("l2")
        xs = np.zeros((7, 2))
        metric.pair_distances(xs, xs)
        assert metric.pairs_computed == 7

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            get_metric("l2").pair_distances(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_empty(self):
        assert get_metric("l2").pair_distances(np.zeros((0, 2)), np.zeros((0, 2))).size == 0


class TestCrossDistancesLoopsTheShorterSide:
    """The matrix is filled by rows or by columns, whichever is fewer calls;
    either way it holds the row loop's bytes and counts ``n * m`` pairs."""

    @staticmethod
    def _row_loop(metric, xs, ys):
        out = np.empty((xs.shape[0], ys.shape[0]))
        for i in range(xs.shape[0]):
            if ys.shape[0]:
                out[i] = metric._one_to_many(xs[i], ys)
        return out

    @pytest.mark.parametrize(
        "shape", [(0, 5), (5, 0), (1, 1), (1, 9), (9, 1), (4, 31), (31, 4), (17, 17)]
    )
    @pytest.mark.parametrize("dims", (1, 2, 3, 7, 8, 9, 10, 33))
    @pytest.mark.parametrize("name", ("l1", "l2", "linf", "l3"))
    def test_equal_to_the_row_loop(self, name, dims, shape):
        rng = np.random.default_rng(dims * 1000 + shape[0] * 37 + shape[1])
        # wide-range floats with sign flips and exact ties
        xs = np.round(rng.normal(scale=1e3, size=(shape[0], dims)), rng.integers(0, 6))
        ys = np.round(rng.normal(scale=1e3, size=(shape[1], dims)), rng.integers(0, 6))
        if shape[0] and shape[1]:
            ys[0] = xs[-1]
        expected = self._row_loop(get_metric(name), xs, ys)
        numpy_provider = get_kernel_provider("numpy")
        for cross in (Metric.cross_distances, numpy_provider.cross_distances):
            metric = get_metric(name)
            got = cross(metric, xs, ys)
            assert got.shape == shape and got.flags.c_contiguous
            assert np.array_equal(got, expected)
            assert metric.pairs_computed == shape[0] * shape[1]

    def test_column_fill_is_what_runs_when_ys_is_shorter(self, monkeypatch):
        metric = EuclideanMetric()
        calls = []
        kernel = metric._one_to_many
        monkeypatch.setattr(
            metric, "_one_to_many", lambda a, bs: calls.append(bs.shape[0]) or kernel(a, bs)
        )
        metric.cross_distances(np.zeros((50, 2)), np.ones((3, 2)))
        assert calls == [50, 50, 50]
        calls.clear()
        metric.cross_distances(np.zeros((3, 2)), np.ones((50, 2)))
        assert calls == [50, 50, 50]
