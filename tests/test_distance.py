"""Unit tests for the counted metric layer."""

import math

import numpy as np
import pytest

from repro.core import distance
from repro.core.distance import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    MinkowskiMetric,
    get_metric,
)


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

    def test_pairwise_matrix_counts_combinations(self):
        metric = EuclideanMetric()
        metric.pairwise_matrix(np.random.default_rng(0).random((6, 2)))
        assert metric.pairs_computed == 15  # C(6, 2)

    def test_uncounted_variants_do_not_count(self):
        metric = EuclideanMetric()
        metric.uncounted_distance([0.0], [1.0])
        assert metric.pairs_computed == 0

    def test_empty_batch(self):
        metric = EuclideanMetric()
        out = metric.distances(np.zeros(2), np.empty((0, 2)))
        assert out.size == 0
        assert metric.pairs_computed == 0


class TestPairwiseMatrix:
    """One distance per unordered pair, mirrored: the bytes of the full
    ``cross_distances`` matrix at half the counted pairs."""

    def test_matches_direct_double_loop(self):
        points = np.random.default_rng(2).random((8, 3))
        matrix = EuclideanMetric().pairwise_matrix(points)
        for i in range(8):
            for j in range(8):
                assert matrix[i, j] == pytest.approx(math.dist(points[i], points[j]))

    @pytest.mark.parametrize("dims", (1, 2, 10, 130))  # 130: the fold's > 128 split
    @pytest.mark.parametrize("name", ("l1", "l2", "linf", "l3"))
    def test_bytes_equal_cross_distances(self, name, dims):
        rng = np.random.default_rng(dims)
        xs = np.round(rng.normal(scale=1e3, size=(17, dims)), 2)
        xs[5] = xs[2]  # a coincident pair: an exact zero off the diagonal
        xs[7], xs[8] = xs[7] * 1e5, xs[8] * 1e-11  # coordinates near 1e8 and 1e-8
        xs[9] = -xs[10]
        metric = get_metric(name)
        matrix = metric.pairwise_matrix(xs)
        assert metric.pairs_computed == 17 * 16 // 2
        assert matrix.tobytes() == get_metric(name).cross_distances(xs, xs).tobytes()
        assert matrix.tobytes() == matrix.T.copy().tobytes()
        assert not np.diagonal(matrix).any() and matrix[2, 5] == 0.0
        # what a self-join reducer's own-cell memo relies on: |x, y| is |y, x|
        # to the byte, and |x, x| is +0.0
        rows, cols = (index.ravel() for index in np.indices((17, 17)))
        forth = metric.pair_distances(xs[rows], xs[cols])
        assert forth.tobytes() == metric.pair_distances(xs[cols], xs[rows]).tobytes()
        itself = metric.pair_distances(xs, xs)
        assert not itself.any() and not np.signbit(itself).any()

    @pytest.mark.parametrize("rows", (0, 1, 2))
    def test_degenerate_sizes(self, rows):
        metric = get_metric("l2")
        matrix = metric.pairwise_matrix(np.ones((rows, 3)))
        assert matrix.shape == (rows, rows) and not matrix.any()
        assert metric.pairs_computed == rows * (rows - 1) // 2


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


DIMS = (*range(1, 18), 127, 128, 129, 300)
METRICS = ("l1", "l2", "linf", "l3")


def _points(rng, rows, dims, layout):
    """Wide-range floats with sign flips and exact ties, in a chosen layout."""
    values = np.round(rng.normal(scale=1e3, size=(rows, dims)), int(rng.integers(0, 6)))
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "strided":  # every other row and column of a larger array
        wide = np.zeros((2 * rows, 2 * dims))
        wide[::2, ::2] = values
        return wide[::2, ::2]
    return values


def _scalar_loop(name, xs, ys):
    """The oracle: one ``_pair`` (an ``np.sum`` over one row) per pair."""
    metric = get_metric(name)
    out = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = metric._pair(np.ascontiguousarray(x), np.ascontiguousarray(y))
    return out


class TestBatchKernelsKeepTheScalarBytes:
    """``distances``, ``pair_distances`` and ``cross_distances`` add the
    per-coordinate terms in the order ``np.sum`` adds one row, so they return
    the bytes of the scalar loop at every width (the sequential, eight-lane
    and split regimes of the pairwise tree), batch shape and memory layout —
    and count exactly the pairs they were asked for."""

    @pytest.mark.parametrize("layout", ("c", "fortran", "strided"))
    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (1, 1), (1, 9), (9, 1), (6, 13)])
    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("name", METRICS)
    def test_cross_distances(self, name, dims, shape, layout):
        rng = np.random.default_rng(dims * 1000 + shape[0] * 37 + shape[1])
        xs, ys = _points(rng, shape[0], dims, layout), _points(rng, shape[1], dims, layout)
        if shape[0] and shape[1]:
            ys[0] = xs[-1]
        expected = _scalar_loop(name, xs, ys)
        metric = get_metric(name)
        got = metric.cross_distances(xs, ys)
        assert got.shape == shape and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        assert metric.pairs_computed == shape[0] * shape[1]

    @pytest.mark.parametrize("layout", ("c", "fortran", "strided"))
    @pytest.mark.parametrize("rows", (0, 1, 2, 23))
    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("name", METRICS)
    def test_distances_and_pair_distances(self, name, dims, rows, layout):
        rng = np.random.default_rng(dims * 100 + rows)
        xs, ys = _points(rng, rows, dims, layout), _points(rng, rows, dims, layout)
        query = _points(rng, 1, dims, layout)[0]
        if rows:
            ys[0] = xs[0]
            xs[-1] = query
        metric = get_metric(name)
        one_to_many = metric.distances(query, xs)
        assert one_to_many.tobytes() == _scalar_loop(name, query[None], xs).tobytes()
        assert metric.pairs_computed == rows
        aligned = metric.pair_distances(xs, ys)
        assert aligned.tobytes() == np.diagonal(_scalar_loop(name, xs, ys)).tobytes()
        assert metric.pairs_computed == 2 * rows

    def test_cross_distances_row_chunks(self, monkeypatch):
        """Chunk boundaries (here: a row per chunk, and all rows in one) are
        invisible, and the chunk buffer never exceeds what it was sized for."""
        rng = np.random.default_rng(5)
        xs, ys = rng.normal(size=(37, 10)), rng.normal(size=(11, 10))
        expected = _scalar_loop("l2", xs, ys)
        for budget in (1, 8 * 11 * 5, 1 << 30):
            monkeypatch.setattr(distance, "_CROSS_BYTES", budget)
            assert get_metric("l2").cross_distances(xs, ys).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dims", (0, *DIMS, 257, 1024))
    def test_column_fold_is_numpys_pairwise_sum(self, dims):
        """Two spellings of one tree: the column fold over whole arrays and
        ``np.sum`` over contiguous rows."""
        rng = np.random.default_rng(dims)
        rows = rng.normal(scale=1e6, size=(29, dims)) ** 3
        folded = distance._column_fold(np.ascontiguousarray(rows.T))
        assert folded.tobytes() == np.sum(rows, axis=1).tobytes()
