"""Unit tests for the replication cost model (Theorem 7, Eq. 11-12)."""

import numpy as np

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.bounds import compute_lb_matrix, compute_thetas, group_lb_matrix
from repro.core.summary import build_partial_summary
from repro.grouping import GeometricGrouping
from repro.grouping.cost_model import (
    approx_replication,
    approx_replication_vector,
    exact_replication,
)


def world(seed=1, num_objects=500, num_pivots=20, k=3, num_groups=4):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.random((num_objects, 3)))
    metric = get_metric("l2")
    pivots = data.points[rng.choice(num_objects, num_pivots, replace=False)]
    partitioner = VoronoiPartitioner(pivots, metric)
    assignment = partitioner.assign(data)
    tr = ts = build_partial_summary(assignment.partition_ids, assignment.pivot_distances)
    pdm = partitioner.pivot_distance_matrix()
    thetas = compute_thetas(tr, ts, pdm, k)
    lb = compute_lb_matrix(tr, pdm, thetas)
    groups = GeometricGrouping().group(tr, ts, pdm, lb, num_groups)
    lbg = group_lb_matrix(lb, groups.groups)
    return data, assignment, ts, lbg


class TestExactReplication:
    def test_matches_direct_enumeration(self):
        data, assignment, ts, lbg = world()
        direct = 0
        for row in range(len(data)):
            j = assignment.partition_ids[row]
            dist = assignment.pivot_distances[row]
            direct += int(np.sum(dist >= lbg[j] - 1e-9))
        computed = exact_replication(
            lbg, assignment.partition_ids, assignment.pivot_distances
        )
        assert computed == direct

    def test_at_least_one_replica_per_object(self):
        """Self-join: every s is *someone's* neighbor candidate somewhere."""
        data, assignment, ts, lbg = world()
        per_object = (
            assignment.pivot_distances[:, None] >= lbg[assignment.partition_ids] - 1e-9
        ).sum(axis=1)
        assert (per_object >= 1).all()


class TestApproxReplication:
    def test_upper_bounds_exact(self):
        """Equation 12 charges whole partitions, so it can only over-count."""
        data, assignment, ts, lbg = world()
        exact = exact_replication(lbg, assignment.partition_ids, assignment.pivot_distances)
        approx = approx_replication(lbg, ts)
        assert approx >= exact

    def test_vector_sums_to_total(self):
        data, assignment, ts, lbg = world()
        vector = approx_replication_vector(lbg, ts)
        assert int(vector.sum()) == approx_replication(lbg, ts)

    def test_inf_lb_means_zero(self):
        data, assignment, ts, lbg = world()
        blocked = np.full_like(lbg, np.inf)
        assert approx_replication(blocked, ts) == 0

    def test_minus_inf_lb_means_everything(self):
        data, assignment, ts, lbg = world()
        always = np.full_like(lbg, -np.inf)
        expected = lbg.shape[1] * int(ts.counts.sum())
        assert approx_replication(always, ts) == expected
