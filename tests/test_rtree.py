"""Unit tests for the R-tree substrate."""

import numpy as np
import pytest

from repro.core import get_metric
from repro.core.knn import knn_of_point
from repro.rtree import Rect, RTree
from tests.rtree_invariants import check_invariants


class TestRect:
    def test_of_points(self):
        rect = Rect.of_points(np.array([[1.0, 5.0], [3.0, 2.0]]))
        assert rect.lo.tolist() == [1.0, 2.0]
        assert rect.hi.tolist() == [3.0, 5.0]

    def test_union(self):
        a = Rect(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        b = Rect(np.array([2.0, -1.0]), np.array([3.0, 0.5]))
        u = a.union(b)
        assert u.lo.tolist() == [0.0, -1.0]
        assert u.hi.tolist() == [3.0, 1.0]

    def test_area_and_enlargement(self):
        a = Rect(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        b = Rect(np.array([3.0, 0.0]), np.array([4.0, 1.0]))
        assert a.area() == 4.0
        assert a.enlargement(b) == 8.0 - 4.0

    def test_intersects(self):
        a = Rect(np.array([0.0]), np.array([2.0]))
        assert a.intersects(Rect(np.array([2.0]), np.array([3.0])))  # touching
        assert not a.intersects(Rect(np.array([2.1]), np.array([3.0])))

    def test_mindist_zero_inside(self):
        rect = Rect(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        assert rect.mindist(np.array([1.0, 1.0]), get_metric("l2")) == 0.0

    def test_mindist_outside(self):
        rect = Rect(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert rect.mindist(np.array([4.0, 5.0]), get_metric("l2")) == pytest.approx(5.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(np.array([1.0]), np.array([0.0]))


def random_tree(n=300, dims=3, capacity=16, seed=0, bulk=True):
    rng = np.random.default_rng(seed)
    points = rng.random((n, dims))
    ids = np.arange(n)
    metric = get_metric("l2")
    if bulk:
        return RTree.bulk_load(points, ids, metric, capacity), points, ids
    tree = RTree(metric, capacity)
    for i in range(n):
        tree.insert(points[i], i)
    return tree, points, ids


class TestBulkLoad:
    def test_size_and_invariants(self):
        tree, _, _ = random_tree()
        assert len(tree) == 300
        check_invariants(tree)

    def test_empty(self):
        tree = RTree.bulk_load(np.empty((0, 2)), np.empty(0, dtype=int), get_metric("l2"))
        assert len(tree) == 0
        assert tree.knn(np.zeros(2), 3)[0].size == 0

    def test_single_point(self):
        tree = RTree.bulk_load(np.array([[1.0, 2.0]]), np.array([7]), get_metric("l2"))
        ids, dists = tree.knn(np.array([1.0, 2.0]), 1)
        assert ids.tolist() == [7]
        assert dists[0] == 0.0


class TestInsertion:
    def test_incremental_matches_bulk_knn(self):
        bulk, points, ids = random_tree(n=150, capacity=8, bulk=True)
        incremental, _, _ = random_tree(n=150, capacity=8, bulk=False)
        check_invariants(incremental)
        query = np.array([0.5, 0.5, 0.5])
        assert np.array_equal(bulk.knn(query, 10)[0], incremental.knn(query, 10)[0])

    def test_capacity_respected(self):
        tree, _, _ = random_tree(n=200, capacity=4, bulk=False)
        check_invariants(tree)

    def test_min_capacity(self):
        with pytest.raises(ValueError):
            RTree(get_metric("l2"), capacity=2)


class TestKnnSearch:
    def test_matches_brute_force(self):
        tree, points, ids = random_tree(seed=3)
        metric = get_metric("l2")
        rng = np.random.default_rng(5)
        for _ in range(20):
            query = rng.random(3)
            tree_ids, tree_dists = tree.knn(query, 7)
            bf_ids, bf_dists = knn_of_point(metric, query, points, ids, 7)
            assert np.allclose(tree_dists, bf_dists)

    def test_k_exceeds_size(self):
        tree, _, _ = random_tree(n=5)
        ids, dists = tree.knn(np.zeros(3), 10)
        assert ids.size == 5

    def test_counts_only_object_pairs(self):
        tree, points, ids = random_tree(n=100, capacity=8)
        before = tree.metric.pairs_computed
        tree.knn(np.full(3, 0.5), 5)
        visited = tree.metric.pairs_computed - before
        assert 5 <= visited <= 100  # pruning did something, counting happened

    def test_invalid_k(self):
        tree, _, _ = random_tree(n=10)
        with pytest.raises(ValueError):
            tree.knn(np.zeros(3), 0)

    def test_other_metrics(self):
        rng = np.random.default_rng(9)
        points = rng.random((80, 2))
        for name in ("l1", "linf"):
            metric = get_metric(name)
            tree = RTree.bulk_load(points, np.arange(80), metric, 8)
            query = rng.random(2)
            tree_ids, tree_dists = tree.knn(query, 5)
            bf_ids, bf_dists = knn_of_point(get_metric(name), query, points, np.arange(80), 5)
            assert np.allclose(tree_dists, bf_dists), name
