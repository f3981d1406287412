"""Unit tests for Voronoi diagram-based partitioning."""

import numpy as np
import pytest

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.partition import PartitionAssignment
from tests.reference_voronoi import pruned_pair_count


def make_partitioner(pivots):
    return VoronoiPartitioner(np.asarray(pivots, dtype=float), get_metric("l2"))


class TestAssignment:
    def test_each_object_goes_to_nearest_pivot(self):
        partitioner = make_partitioner([[0.0, 0.0], [10.0, 10.0]])
        data = Dataset(np.array([[1.0, 1.0], [9.0, 9.0], [0.5, 0.0]]))
        assignment = partitioner.assign(data)
        assert assignment.partition_ids.tolist() == [0, 1, 0]

    def test_pivot_distances_are_correct(self):
        partitioner = make_partitioner([[0.0, 0.0], [10.0, 0.0]])
        data = Dataset(np.array([[3.0, 4.0]]))
        assignment = partitioner.assign(data)
        assert assignment.pivot_distances[0] == pytest.approx(5.0)

    def test_assignment_is_deterministic(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.random((200, 4)))
        pivots = rng.random((10, 4))
        a = make_partitioner(pivots).assign(data)
        b = make_partitioner(pivots).assign(data)
        assert np.array_equal(a.partition_ids, b.partition_ids)

    def test_all_partitions_cover_dataset(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.random((100, 3)))
        partitioner = make_partitioner(rng.random((7, 3)))
        assignment = partitioner.assign(data)
        assert len(assignment) == 100
        assert set(assignment.partition_ids.tolist()) <= set(range(7))

    def test_distance_counting_includes_all_object_pivot_pairs(self):
        """Every object-pivot pair that is computed is counted; the rest are
        skipped by the triangle bound (all of them computed below 16 pivots)."""
        points = np.random.default_rng(1).random((400, 2))
        for num_pivots in (6, 60):
            pivots = np.random.default_rng(0).random((num_pivots, 2))
            anchors = VoronoiPartitioner(pivots, get_metric("l2")).anchor_index()
            metric = get_metric("l2")
            VoronoiPartitioner(pivots, metric, anchors).assign(Dataset(points))
            assert metric.pairs_computed == pruned_pair_count(pivots, get_metric("l2"), points)
            assert metric.pairs_computed <= 400 * num_pivots
        assert metric.pairs_computed < 400 * 60 and pruned_pair_count(
            pivots[:6], metric, points
        ) == 400 * 6


class TestTieBreaking:
    def test_tie_goes_to_smaller_partition(self):
        # two coincident pivots: every object ties; counts must balance
        partitioner = make_partitioner([[0.0, 0.0], [0.0, 0.0]])
        data = Dataset(np.random.default_rng(0).random((10, 2)))
        assignment = partitioner.assign(data)
        counts = assignment.counts()
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_equidistant_point_balances(self):
        partitioner = make_partitioner([[0.0, 0.0], [2.0, 0.0]])
        # all points on the perpendicular bisector x=1
        points = np.column_stack([np.ones(8), np.linspace(-1, 1, 8)])
        assignment = partitioner.assign(Dataset(points))
        counts = assignment.counts()
        assert counts[0] == counts[1] == 4


class TestPartitionAssignment:
    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            PartitionAssignment(np.array([0]), np.zeros(2), 1)


class TestValidation:
    def test_rejects_empty_pivots(self):
        with pytest.raises(ValueError):
            make_partitioner(np.empty((0, 2)))

    def test_pivot_distance_matrix_symmetric_zero_diagonal(self):
        partitioner = make_partitioner(np.random.default_rng(3).random((6, 3)))
        pdm = partitioner.pivot_distance_matrix()
        assert np.allclose(pdm, pdm.T)
        assert np.allclose(np.diag(pdm), 0.0)
