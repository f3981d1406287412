"""Unit tests for the iDistance index and the iJoin baseline."""

import numpy as np
import pytest

from repro.core import get_metric
from repro.core.knn import knn_of_point
from repro.datasets import generate_forest
from repro.idistance import IDistanceIndex
from repro.joins import BlockJoinConfig, get_join, run_join
from tests.conftest import ground_truth


def build_index(n=400, dims=3, num_pivots=10, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.random((n, dims))
    ids = np.arange(n)
    metric = get_metric("l2")
    pivots = points[rng.choice(n, num_pivots, replace=False)]
    return IDistanceIndex(points, ids, pivots, metric), points, ids


class TestKnn:
    def test_matches_brute_force(self):
        index, points, ids = build_index(seed=1)
        rng = np.random.default_rng(2)
        for _ in range(25):
            query = rng.random(3)
            got_ids, got_dists = index.knn(query, 6)
            want_ids, want_dists = knn_of_point(get_metric("l2"), query, points, ids, 6)
            assert np.allclose(got_dists, want_dists)

    def test_query_on_data_point(self):
        index, points, ids = build_index(seed=3)
        got_ids, got_dists = index.knn(points[17], 1)
        assert got_ids[0] == 17
        assert got_dists[0] == 0.0

    def test_k_exceeds_size(self):
        index, _, _ = build_index(n=5, num_pivots=2)
        got_ids, _ = index.knn(np.zeros(3), 10)
        assert got_ids.size == 5

    def test_tiny_initial_radius_still_exact(self):
        index, points, ids = build_index(seed=4)
        query = np.full(3, 0.5)
        got_ids, got_dists = index.knn(query, 5, initial_radius=1e-6)
        want_ids, want_dists = knn_of_point(get_metric("l2"), query, points, ids, 5)
        assert np.allclose(got_dists, want_dists)

    def test_clustered_data(self):
        data = generate_forest(300, seed=5)
        metric = get_metric("l2")
        rng = np.random.default_rng(6)
        pivots = data.points[rng.choice(300, 8, replace=False)]
        index = IDistanceIndex(data.points, data.ids, pivots, metric)
        query = data.points[100]
        got_ids, got_dists = index.knn(query, 4)
        _, want_dists = knn_of_point(get_metric("l2"), query, data.points, data.ids, 4)
        assert np.allclose(got_dists, want_dists)

    def test_counts_object_pairs_only(self):
        index, points, ids = build_index(seed=7)
        before = index.metric.pairs_computed
        index.knn(np.full(3, 0.5), 5)
        pairs = index.metric.pairs_computed - before
        # query-to-pivot pairs plus verified candidates, but not everything
        assert 10 <= pairs < 410

    def test_invalid_k(self):
        index, _, _ = build_index(n=20, num_pivots=4)
        with pytest.raises(ValueError):
            index.knn(np.zeros(3), 0)

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            IDistanceIndex(np.zeros((3, 2)), np.arange(2), np.zeros((1, 2)), get_metric("l2"))


class TestRangeSearch:
    def test_matches_linear_scan(self):
        index, points, ids = build_index(seed=8)
        rng = np.random.default_rng(9)
        for _ in range(10):
            query = rng.random(3)
            theta = 0.1 + 0.3 * rng.random()
            got = index.range_search(query, theta)
            dists = np.linalg.norm(points - query, axis=1)
            want = sorted(int(i) for i in ids[dists <= theta])
            assert got == want

    def test_zero_threshold(self):
        index, points, ids = build_index(seed=10)
        got = index.range_search(points[3], 0.0)
        assert 3 in got


class TestIJoinBaseline:
    def test_exact_on_uniform(self, small_uniform):
        outcome = run_join(
            "ijoin",
            small_uniform,
            small_uniform,
            BlockJoinConfig(k=5, num_reducers=4, num_pivots=24),
        )
        truth = ground_truth(small_uniform, small_uniform, 5)
        assert outcome.result.same_distances_as(truth)

    def test_exact_on_forest_ties(self, small_forest):
        outcome = run_join(
            "ijoin", small_forest, small_forest, BlockJoinConfig(k=4, num_reducers=9, num_pivots=24)
        )
        truth = ground_truth(small_forest, small_forest, 4)
        assert outcome.result.same_distances_as(truth)

    def test_registry_name(self):
        spec = get_join("IJoin")
        assert spec.name == "ijoin" and spec.config_class is BlockJoinConfig
