"""Property-based tests (hypothesis) for core invariants.

These encode the paper's theorems as machine-checked properties over random
inputs: metric axioms, partition invariants, bound validity, ring
completeness and scheduler bounds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.bounds import compute_lb_matrix, compute_thetas, lower_bound, upper_bound
from repro.core.geometry import hyperplane_distance, ring_slice
from repro.core.knn import KBestList
from repro.core.summary import build_partial_summary
from repro.mapreduce.cluster import schedule_makespan

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, width=64)


def points_strategy(min_rows=2, max_rows=30, dims=3):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_rows, max_rows), st.just(dims)),
        elements=finite,
    )


@st.composite
def metric_and_points(draw):
    name = draw(st.sampled_from(["l2", "l1", "linf"]))
    points = draw(points_strategy())
    return get_metric(name), points


class TestMetricAxioms:
    @given(metric_and_points())
    @settings(max_examples=60, deadline=None)
    def test_non_negativity_and_symmetry(self, pair):
        metric, points = pair
        a, b = points[0], points[-1]
        d_ab = metric.distance(a, b)
        assert d_ab >= 0
        assert abs(d_ab - metric.distance(b, a)) < 1e-9

    @given(metric_and_points())
    @settings(max_examples=60, deadline=None)
    def test_identity(self, pair):
        metric, points = pair
        assert metric.distance(points[0], points[0]) == 0.0

    @given(metric_and_points())
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, pair):
        metric, points = pair
        if points.shape[0] < 3:
            return
        a, b, c = points[0], points[1], points[2]
        assert metric.distance(a, c) <= (
            metric.distance(a, b) + metric.distance(b, c) + 1e-9
        )


class TestPartitionInvariants:
    @given(points_strategy(min_rows=5, max_rows=40), st.integers(1, 6), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_cover_and_nearest(self, points, num_pivots, seed):
        rng = np.random.default_rng(seed)
        chosen = rng.choice(points.shape[0], min(num_pivots, points.shape[0]), replace=False)
        pivots = points[chosen]
        metric = get_metric("l2")
        partitioner = VoronoiPartitioner(pivots, metric)
        assignment = partitioner.assign(Dataset(points))
        # every object assigned exactly once
        assert assignment.counts().sum() == points.shape[0]
        # assigned distance equals the true minimum pivot distance
        for row in range(points.shape[0]):
            true_min = np.min(np.linalg.norm(pivots - points[row], axis=1))
            assert abs(assignment.pivot_distances[row] - true_min) < 1e-7


class TestBoundValidity:
    @given(points_strategy(min_rows=8, max_rows=40), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_theorems_3_and_4_sandwich(self, points, seed):
        """ub >= |r,s| >= lb over random partitioned worlds."""
        rng = np.random.default_rng(seed)
        half = points.shape[0] // 2
        r_points, s_points = points[:half], points[half:]
        if r_points.shape[0] == 0 or s_points.shape[0] == 0:
            return
        num_pivots = min(3, r_points.shape[0])
        pivots = r_points[rng.choice(r_points.shape[0], num_pivots, replace=False)]
        metric = get_metric("l2")
        partitioner = VoronoiPartitioner(pivots, metric)
        ar = partitioner.assign(Dataset(r_points))
        as_ = partitioner.assign(Dataset(s_points, ids=np.arange(1000, 1000 + s_points.shape[0])))
        tr = build_partial_summary(ar.partition_ids, ar.pivot_distances)
        pdm = partitioner.pivot_distance_matrix()
        for r_row in range(min(5, r_points.shape[0])):
            i = ar.partition_ids[r_row]
            u_ri = float(tr.upper[tr.partition_ids().index(int(i))])
            for s_row in range(min(5, s_points.shape[0])):
                j = as_.partition_ids[s_row]
                ds_pj = as_.pivot_distances[s_row]
                true = float(np.linalg.norm(r_points[r_row] - s_points[s_row]))
                assert true <= upper_bound(u_ri, pdm[i, j], ds_pj) + 1e-7
                assert true >= lower_bound(u_ri, pdm[i, j], ds_pj) - 1e-7

    @given(points_strategy(min_rows=10, max_rows=40), st.integers(0, 5), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_shipping_rule_completeness(self, points, seed, k):
        """Corollary 2 never loses a true neighbor (the exactness linchpin)."""
        rng = np.random.default_rng(seed)
        data = Dataset(points)
        if k > points.shape[0]:
            return
        num_pivots = min(4, points.shape[0])
        pivots = points[rng.choice(points.shape[0], num_pivots, replace=False)]
        metric = get_metric("l2")
        partitioner = VoronoiPartitioner(pivots, metric)
        assignment = partitioner.assign(data)
        tr = ts = build_partial_summary(assignment.partition_ids, assignment.pivot_distances)
        pdm = partitioner.pivot_distance_matrix()
        thetas = compute_thetas(tr, ts, pdm, k)
        lb = compute_lb_matrix(tr, pdm, thetas)
        for r_row in range(points.shape[0]):
            i = assignment.partition_ids[r_row]
            dists = np.linalg.norm(points - points[r_row], axis=1)
            for s_row in np.argsort(dists, kind="stable")[:k]:
                j = assignment.partition_ids[s_row]
                assert assignment.pivot_distances[s_row] >= lb[j, i] - 1e-7


class TestRingCompleteness:
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50),
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 50, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_slice_superset_of_qualifiers(self, dists, query_dist, theta):
        sorted_dists = np.sort(np.array(dists))
        lo_stat, hi_stat = float(sorted_dists[0]), float(sorted_dists[-1])
        start, stop = ring_slice(sorted_dists, lo_stat, hi_stat, query_dist, theta)
        qualifying = np.abs(sorted_dists - query_dist) <= theta
        inside = np.zeros(len(sorted_dists), dtype=bool)
        inside[start:stop] = True
        assert not np.any(qualifying & ~inside)


class TestHyperplaneSafety:
    @given(points_strategy(min_rows=4, max_rows=30))
    @settings(max_examples=50, deadline=None)
    def test_generic_bound_never_exceeds_true_distance(self, points):
        """GH bound <= |q, o| for q in cell i, o in cell j (both variants)."""
        pi, pj = points[0], points[1]
        d_pi_pj = float(np.linalg.norm(pi - pj))
        for q in points[2 : points.shape[0] // 2 + 2]:
            d_qi, d_qj = np.linalg.norm(q - pi), np.linalg.norm(q - pj)
            if d_qi > d_qj:
                continue  # q must be in cell i
            for o in points[points.shape[0] // 2 :]:
                d_oi, d_oj = np.linalg.norm(o - pi), np.linalg.norm(o - pj)
                if d_oj > d_oi:
                    continue  # o must be in cell j
                true = float(np.linalg.norm(q - o))
                for euclidean in (True, False):
                    bound = hyperplane_distance(float(d_qi), float(d_qj), d_pi_pj, euclidean)
                    assert bound <= true + 1e-7


class TestKBestProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.integers(0, 10_000)),
            min_size=1,
            max_size=60,
            unique_by=lambda t: t[1],
        ),
        st.integers(1, 10),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_equals_global_sort(self, items, k, chunks):
        dists = np.array([d for d, _ in items])
        ids = np.array([i for _, i in items])
        kbest = KBestList(k)
        for chunk in np.array_split(np.arange(len(items)), chunks):
            kbest.update(dists[chunk], ids[chunk])
        got_ids, got_dists = kbest.as_arrays()
        order = np.lexsort((ids, dists))[:k]
        assert np.array_equal(got_ids, ids[order])
        assert np.allclose(got_dists, dists[order])


class TestSchedulerBounds:
    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=0, max_size=30), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_between_critical_path_and_serial(self, durations, slots):
        makespan = schedule_makespan(durations, slots)
        if durations:
            assert makespan >= max(durations) - 1e-9
            assert makespan <= sum(durations) + 1e-9
            # list scheduling is a 2-approximation of optimal
            lower = max(max(durations), sum(durations) / slots)
            assert makespan <= 2 * lower + 1e-9
        else:
            assert makespan == 0.0
