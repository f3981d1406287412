"""Property-based tests for the R-tree, H-BRJ's reducer index.

It must agree exactly with linear-scan semantics over arbitrary inputs —
duplicated points, clustered points, degenerate dimensions included — under
every metric a join takes: MINDIST must bound each metric from below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_metric
from repro.core.knn import knn_of_point
from repro.rtree import RTree
from tests.rtree_invariants import check_invariants


@st.composite
def rtree_world(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(1, 80))
    dims = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    # mix of clustered and grid-like (tie-prone) data
    if draw(st.booleans()):
        points = rng.integers(0, 5, size=(n, dims)).astype(float)
    else:
        points = rng.random((n, dims))
    query = rng.random(dims) * 2 - 0.5
    k = draw(st.integers(1, 10))
    return points, query, k, seed


@pytest.mark.parametrize("metric", ("l1", "l2", "linf"))
class TestRTreeProperties:
    @given(world=rtree_world())
    @settings(max_examples=50, deadline=None)
    def test_knn_distances_match_brute_force(self, metric, world):
        points, query, k, seed = world
        ids = np.arange(points.shape[0])
        tree = RTree.bulk_load(points, ids, get_metric(metric), capacity=8)
        check_invariants(tree)
        got_ids, got_dists = tree.knn(query, k)
        want_ids, want_dists = knn_of_point(get_metric(metric), query, points, ids, k)
        assert np.allclose(got_dists, want_dists)

    @given(world=rtree_world())
    @settings(max_examples=30, deadline=None)
    def test_insertion_keeps_invariants(self, metric, world):
        points, query, k, seed = world
        tree = RTree(get_metric(metric), capacity=4)
        for row in range(points.shape[0]):
            tree.insert(points[row], row)
        check_invariants(tree)
        got_ids, got_dists = tree.knn(query, k)
        _, want_dists = knn_of_point(
            get_metric(metric), query, points, np.arange(points.shape[0]), k
        )
        assert np.allclose(got_dists, want_dists)
