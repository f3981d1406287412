"""Unit tests for the kNN/replication bounds (Theorems 3-6, Algorithms 1-2)."""

import numpy as np
import pytest

from repro.core import Dataset, VoronoiPartitioner, bounds, get_metric
from repro.core.bounds import (
    bounding_knn,
    compute_lb_matrix,
    compute_thetas,
    group_lb_matrix,
    lower_bound,
    upper_bound,
)
from repro.core.summary import build_partial_summary


def partitioned_world(seed=0, num_r=80, num_s=90, num_pivots=6, k=4):
    """A small fully-partitioned R/S world with summaries and true distances."""
    rng = np.random.default_rng(seed)
    r = Dataset(rng.random((num_r, 3)), name="r")
    s = Dataset(rng.random((num_s, 3)), name="s")
    metric = get_metric("l2")
    partitioner = VoronoiPartitioner(rng.random((num_pivots, 3)), metric)
    ar = partitioner.assign(r)
    as_ = partitioner.assign(s)
    tr = build_partial_summary(ar.partition_ids, ar.pivot_distances, k=0)
    ts = build_partial_summary(as_.partition_ids, as_.pivot_distances, k=k)
    pdm = partitioner.pivot_distance_matrix()
    return r, s, ar, as_, tr, ts, pdm, k


class TestPointwiseBounds:
    def test_upper_bound_formula(self):
        assert upper_bound(2.0, 3.0, 4.0) == 9.0

    def test_lower_bound_formula(self):
        assert lower_bound(1.0, 10.0, 2.0) == 7.0

    def test_lower_bound_floors_at_zero(self):
        assert lower_bound(5.0, 1.0, 8.0) == 0.0

    def test_bounds_sandwich_true_distances(self):
        """ub >= |r,s| >= lb for every r in the cell (Theorems 3-4)."""
        r, s, ar, as_, tr, ts, pdm, k = partitioned_world()
        for i in tr.partition_ids():
            u_ri = tr.get(i).upper
            r_rows = ar.rows_of(i)
            for j in ts.partition_ids():
                s_rows = as_.rows_of(j)[:5]
                for s_row in s_rows:
                    d_s_pj = as_.pivot_distances[s_row]
                    ub = upper_bound(u_ri, pdm[i, j], d_s_pj)
                    lb = lower_bound(u_ri, pdm[i, j], d_s_pj)
                    for r_row in r_rows[:5]:
                        true = np.linalg.norm(r.points[r_row] - s.points[s_row])
                        assert lb - 1e-9 <= true <= ub + 1e-9


class TestBoundingKnn:
    def test_theta_bounds_every_objects_knn_radius(self):
        """Equation 6: theta_i >= k-th NN distance of every r in P_i^R."""
        r, s, ar, as_, tr, ts, pdm, k = partitioned_world()
        thetas = compute_thetas(tr, ts, pdm, k)
        for i in tr.partition_ids():
            for r_row in ar.rows_of(i):
                dists = np.sort(np.linalg.norm(s.points - r.points[r_row], axis=1))
                assert dists[k - 1] <= thetas[i] + 1e-9

    def test_theta_requires_k_candidates(self):
        ts = build_partial_summary(np.zeros(2, dtype=int), np.array([1.0, 2.0]), k=5)
        with pytest.raises(ValueError, match="cannot bound"):
            bounding_knn(1.0, np.zeros(1), ts, k=5)

    def test_k_must_be_positive(self):
        ts = build_partial_summary(np.zeros(2, dtype=int), np.array([1.0, 2.0]), k=1)
        with pytest.raises(ValueError):
            bounding_knn(1.0, np.zeros(1), ts, k=0)

    def test_theta_is_the_kth_smallest_upper_bound(self):
        # one S partition at pivot 0; U(P_R) = 1, |p0,p0| = 0
        ts = build_partial_summary(
            np.zeros(4, dtype=int), np.array([1.0, 2.0, 3.0, 4.0]), k=4
        )
        theta = bounding_knn(1.0, np.zeros(1), ts, k=2)
        assert theta == pytest.approx(1.0 + 0.0 + 2.0)

    @pytest.mark.parametrize("k", (1, 3, 4, 9, 40))
    @pytest.mark.parametrize("num_pivots", (1, 5, 23))
    def test_vectorised_thetas_equal_the_scalar_heap_loop(self, num_pivots, k, monkeypatch):
        """``compute_thetas`` is Algorithm 1 for all R-partitions at once: the
        same floats as ``bounding_knn`` per partition, for cells smaller than
        k, a ``T_S`` that keeps more than k entries per cell, and R chunks."""
        r, s, ar, as_, tr, _, pdm, _ = partitioned_world(
            seed=num_pivots + k, num_pivots=num_pivots, num_s=60
        )
        for table_k, budget in ((k, 1 << 20), (k + 3, 1)):
            monkeypatch.setattr(bounds, "_THETA_BYTES", budget)  # 1: a row per chunk
            ts = build_partial_summary(as_.partition_ids, as_.pivot_distances, table_k)
            expected = {
                pid: bounding_knn(tr.get(pid).upper, pdm[pid], ts, k)
                for pid in tr.partition_ids()
            }
            got = compute_thetas(tr, ts, pdm, k)
            assert got == expected and list(got) == list(expected)
            assert all(type(theta) is float for theta in got.values())

    def test_vectorised_thetas_reject_what_the_heap_loop_rejects(self):
        r, s, ar, as_, tr, ts, pdm, k = partitioned_world(num_s=6)
        with pytest.raises(ValueError, match="cannot bound 7 nearest neighbors: S holds only 6"):
            too_few = build_partial_summary(as_.partition_ids, as_.pivot_distances, 7)
            compute_thetas(tr, too_few, pdm, 7)
        with pytest.raises(ValueError, match="k must be >= 1"):
            compute_thetas(tr, ts, pdm, 0)

    def test_more_pivots_tighten_theta(self):
        """Finer partitioning gives smaller (or equal) average theta."""
        rng = np.random.default_rng(3)
        data = Dataset(rng.random((300, 3)))
        avg = {}
        for num_pivots in (4, 32):
            metric = get_metric("l2")
            partitioner = VoronoiPartitioner(
                data.points[rng.choice(300, num_pivots, replace=False)], metric
            )
            assignment = partitioner.assign(data)
            tr = build_partial_summary(assignment.partition_ids, assignment.pivot_distances, 0)
            ts = build_partial_summary(assignment.partition_ids, assignment.pivot_distances, 4)
            thetas = compute_thetas(tr, ts, partitioner.pivot_distance_matrix(), 4)
            avg[num_pivots] = np.mean(list(thetas.values()))
        assert avg[32] < avg[4]


class TestLbMatrix:
    def test_shipping_rule_never_prunes_a_true_neighbor(self):
        """Corollary 2 completeness: every true kNN of every r is shipped."""
        r, s, ar, as_, tr, ts, pdm, k = partitioned_world(seed=5)
        thetas = compute_thetas(tr, ts, pdm, k)
        lb = compute_lb_matrix(tr, pdm, thetas)
        for r_row in range(len(r)):
            i = ar.partition_ids[r_row]
            dists = np.linalg.norm(s.points - r.points[r_row], axis=1)
            true_knn = np.argsort(dists, kind="stable")[:k]
            for s_row in true_knn:
                j = as_.partition_ids[s_row]
                assert as_.pivot_distances[s_row] >= lb[j, i] - 1e-9

    def test_empty_r_partition_columns_are_inf(self):
        r, s, ar, as_, tr, ts, pdm, k = partitioned_world(num_pivots=12, num_r=10)
        thetas = compute_thetas(tr, ts, pdm, k)
        lb = compute_lb_matrix(tr, pdm, thetas)
        empty = [p for p in range(12) if p not in tr.partition_ids()]
        assert empty, "fixture should have empty R cells"
        for i in empty:
            assert np.all(np.isinf(lb[:, i]))


class TestGroupLb:
    def test_group_lb_is_min_over_members(self):
        lb = np.array([[1.0, 2.0, 3.0], [6.0, 5.0, 4.0]])
        out = group_lb_matrix(lb, [[0, 2], [1]])
        assert out[0].tolist() == [1.0, 2.0]
        assert out[1].tolist() == [4.0, 5.0]

    def test_empty_group_receives_nothing(self):
        lb = np.ones((2, 2))
        out = group_lb_matrix(lb, [[0, 1], []])
        assert np.all(np.isinf(out[:, 1]))

    def test_grouping_only_weakens_bounds(self):
        """LB(P_j^S, G) <= LB(P_j^S, P_i^R) for every member: more shipping."""
        r, s, ar, as_, tr, ts, pdm, k = partitioned_world(seed=7)
        thetas = compute_thetas(tr, ts, pdm, k)
        lb = compute_lb_matrix(tr, pdm, thetas)
        members = tr.partition_ids()
        grouped = group_lb_matrix(lb, [members])
        for i in members:
            assert np.all(grouped[:, 0] <= lb[:, i] + 1e-12)
