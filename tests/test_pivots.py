"""Unit tests for the three pivot selection strategies."""

import numpy as np
import pytest

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.pivots import (
    KMEANS_ITERATIONS,
    PIVOT_SAMPLE_SIZE,
    FarthestPivotSelector,
    KMeansPivotSelector,
    RandomPivotSelector,
    get_pivot_selector,
)


@pytest.fixture
def clustered():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    points = np.vstack([c + rng.normal(0, 0.3, (50, 2)) for c in centers])
    return Dataset(points, name="clusters")


def select(selector, dataset, m, seed=0):
    return selector.select(dataset, m, get_metric("l2"), np.random.default_rng(seed))


class TestCommon:
    @pytest.mark.parametrize("name", ["random", "farthest", "kmeans"])
    def test_shape(self, name, clustered):
        pivots = select(get_pivot_selector(name), clustered, 8)
        assert pivots.shape == (8, 2)

    @pytest.mark.parametrize("name", ["random", "farthest", "kmeans"])
    def test_deterministic_under_seed(self, name, clustered):
        a = select(get_pivot_selector(name), clustered, 6, seed=3)
        b = select(get_pivot_selector(name), clustered, 6, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["random", "farthest", "kmeans"])
    def test_too_many_pivots_rejected(self, name, clustered):
        with pytest.raises(ValueError):
            select(get_pivot_selector(name), clustered, len(clustered) + 1)

    @pytest.mark.parametrize("name", ["farthest", "kmeans"])
    def test_a_direct_selector_picks_a_joins_pivots(self, name):
        """Past the sample size, a selector built with its defaults samples
        and iterates as the joins' selector does: one constant each."""
        from repro.joins import PgbjConfig
        from repro.joins.partition_job import make_pivot_selector

        data = Dataset(np.random.default_rng(4).random((PIVOT_SAMPLE_SIZE + 900, 2)))
        direct = {"farthest": FarthestPivotSelector, "kmeans": KMeansPivotSelector}[name]()
        joined = make_pivot_selector(PgbjConfig(pivot_selection=name))
        assert np.array_equal(select(direct, data, 5, seed=2), select(joined, data, 5, seed=2))
        assert direct.sample_size == PIVOT_SAMPLE_SIZE == 8192
        assert getattr(direct, "max_iterations", KMEANS_ITERATIONS) == KMEANS_ITERATIONS == 8

    def test_unknown_selector(self):
        with pytest.raises(ValueError, match="unknown pivot selector"):
            get_pivot_selector("pca")

    @pytest.mark.parametrize("name", ["farthest", "kmeans"])
    def test_counts_distances(self, name, clustered):
        metric = get_metric("l2")
        get_pivot_selector(name).select(clustered, 5, metric, np.random.default_rng(0))
        assert metric.pairs_computed > 0

    @pytest.mark.parametrize("name", ["farthest", "kmeans"])
    def test_distance_matrix_costs_one_pair_each(self, name, clustered):
        """The matrix costs ``M(M-1)/2`` pairs on top of the selection."""
        selecting, with_matrix = get_metric("l2"), get_metric("l2")
        pivots = get_pivot_selector(name).select(clustered, 7, selecting, np.random.default_rng(4))
        again, matrix = get_pivot_selector(name).select_with_distances(
            clustered, 7, with_matrix, np.random.default_rng(4)
        )
        assert np.array_equal(again, pivots)
        assert with_matrix.pairs_computed == selecting.pairs_computed + 7 * 6 // 2
        assert matrix.tobytes() == get_metric("l2").cross_distances(pivots, pivots).tobytes()


class TestRandom:
    """Section 4.1 with ``T = 1``: one uniform draw, no spread scoring."""

    def test_pivots_are_dataset_objects(self, clustered):
        pivots = select(RandomPivotSelector(), clustered, 5)
        for pivot in pivots:
            assert any(np.allclose(pivot, p) for p in clustered.points)

    @pytest.mark.parametrize("shape", ["float", "grid"])  # grid: duplicate objects
    @pytest.mark.parametrize("m", [1, 2, 7, 30, 120])
    def test_one_draw_in_dataset_order(self, m, shape):
        """The pivots are the rows of one sorted ``rng.choice``, byte for byte."""
        rng = np.random.default_rng(m)
        points = rng.random((120, 3)) if shape == "float" else rng.integers(0, 3, (120, 3))
        data = Dataset(points.astype(float))
        for seed in range(4):
            rows = np.sort(np.random.default_rng(seed).choice(120, size=m, replace=False))
            pivots = select(RandomPivotSelector(), data, m, seed=seed)
            assert pivots.tobytes() == data.points[rows].tobytes()

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("m", [1, 2, 12, 30])
    def test_matrix_costs_one_pair_each(self, m, metric_name, clustered):
        """Choosing computes no distance; the matrix costs exactly ``M(M-1)/2``
        pairs and has the bytes of ``cross_distances``."""
        selecting, with_matrix = get_metric(metric_name), get_metric(metric_name)
        pivots = RandomPivotSelector().select(clustered, m, selecting, np.random.default_rng(3))
        again, matrix = RandomPivotSelector().select_with_distances(
            clustered, m, with_matrix, np.random.default_rng(3)
        )
        assert selecting.pairs_computed == 0
        assert again.tobytes() == pivots.tobytes()
        assert with_matrix.pairs_computed == m * (m - 1) // 2
        cross = get_metric(metric_name).cross_distances(pivots, pivots)
        assert matrix.tobytes() == cross.tobytes()

    def test_takes_no_arguments(self):
        with pytest.raises(TypeError):
            RandomPivotSelector(5)


class TestFarthest:
    def test_picks_extreme_objects(self, clustered):
        """Farthest selection lands on the cluster extremes (outlier affinity)."""
        pivots = select(FarthestPivotSelector(sample_size=0), clustered, 4)
        # the 4 pivots should land in 4 different corners-ish: pairwise far
        dmin = min(
            np.linalg.norm(pivots[i] - pivots[j])
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert dmin > 5.0

    def test_no_duplicate_pivots(self, clustered):
        pivots = select(FarthestPivotSelector(sample_size=0), clustered, 10)
        assert np.unique(pivots, axis=0).shape[0] == 10

    def test_produces_skewed_partitions_vs_random(self):
        """Table 2's shape: farthest selection has larger size deviation."""
        rng = np.random.default_rng(1)
        # clusters plus a few extreme outliers
        points = np.vstack(
            [rng.normal(0, 1, (400, 2)), rng.normal(0, 1, (5, 2)) * 40]
        )
        data = Dataset(points)
        devs = {}
        for name in ("random", "farthest"):
            pivots = select(get_pivot_selector(name), data, 12, seed=5)
            assignment = VoronoiPartitioner(pivots, get_metric("l2")).assign(data)
            devs[name] = assignment.counts().std()
        assert devs["farthest"] > devs["random"]


class TestKMeans:
    def test_centers_near_true_clusters(self, clustered):
        pivots = select(KMeansPivotSelector(sample_size=0), clustered, 4)
        true_centers = np.array([[0, 0], [10, 0], [0, 10], [10, 10]], dtype=float)
        for center in true_centers:
            assert min(np.linalg.norm(pivots - center, axis=1)) < 1.5

    def test_balanced_partitions(self, clustered):
        pivots = select(KMeansPivotSelector(sample_size=0), clustered, 4)
        assignment = VoronoiPartitioner(pivots, get_metric("l2")).assign(clustered)
        assert assignment.counts().std() < 10

    def test_sampling_limits_work(self, clustered):
        pivots = select(KMeansPivotSelector(sample_size=60), clustered, 4)
        assert pivots.shape == (4, 2)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            KMeansPivotSelector(max_iterations=0)
