"""Unit tests for the Dataset container."""

import numpy as np
import pytest

from repro.core import Dataset


def make(points=None, **kwargs):
    if points is None:
        points = np.arange(12, dtype=float).reshape(4, 3)
    return Dataset(points, **kwargs)


class TestConstruction:
    def test_default_ids(self):
        data = make()
        assert np.array_equal(data.ids, [0, 1, 2, 3])

    def test_explicit_ids(self):
        data = make(ids=np.array([10, 20, 30, 40]))
        assert np.array_equal(data.ids, [10, 20, 30, 40])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            make(ids=np.array([1, 1, 2, 3]))

    def test_rejects_1d_points(self):
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.zeros(5))

    def test_rejects_misaligned_ids(self):
        with pytest.raises(ValueError):
            make(ids=np.array([1, 2]))

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError):
            make(payload_bytes=np.array([1, 2, -3, 4]))

    def test_points_are_read_only(self):
        data = make()
        with pytest.raises(ValueError):
            data.points[0, 0] = 99.0

    def test_len_and_dims(self):
        data = make()
        assert len(data) == 4
        assert data.dimensions == 3


class TestAccess:
    def test_iteration_yields_id_point_pairs(self):
        data = make(ids=np.array([5, 6, 7, 8]))
        pairs = list(data)
        assert pairs[0][0] == 5
        assert np.array_equal(pairs[2][1], data.points[2])

    def test_point_of_id(self):
        data = make(ids=np.array([5, 6, 7, 8]))
        assert np.array_equal(data.point_of(7), data.points[2])

    def test_point_of_unknown_id(self):
        with pytest.raises(KeyError):
            make().point_of(99)

    def test_payload_defaults_to_zero(self):
        assert make().payload_of_row(0) == 0

    def test_payload_lookup(self):
        data = make(payload_bytes=np.array([10, 20, 30, 40]))
        assert data.payload_of_row(3) == 40


class TestDerivation:
    def test_take_preserves_ids(self):
        data = make(ids=np.array([5, 6, 7, 8]))
        sub = data.take([1, 3])
        assert np.array_equal(sub.ids, [6, 8])
        assert np.array_equal(sub.points, data.points[[1, 3]])

    def test_sample_smaller(self):
        rng = np.random.default_rng(0)
        data = Dataset(np.random.default_rng(1).random((50, 2)))
        sub = data.sample(10, rng)
        assert len(sub) == 10
        assert set(sub.ids.tolist()) <= set(data.ids.tolist())

    def test_sample_at_least_full_size_returns_self(self):
        data = make()
        assert data.sample(10, np.random.default_rng(0)) is data


class TestRecordBytes:
    def test_without_payload(self):
        # 8 (id) + 3 dims * 8
        assert make().record_bytes(0) == 32

    def test_with_payload_and_extra(self):
        data = make(payload_bytes=np.array([100, 0, 0, 0]))
        assert data.record_bytes(0, extra=4) == 8 + 24 + 100 + 4
