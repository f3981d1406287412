"""Unit tests for serialization, counters, partitioners and splits."""

import numpy as np
import pytest

from repro.core import Dataset
from repro.mapreduce import (
    Counters,
    HashPartitioner,
    ModPartitioner,
    ObjectRecord,
    dataset_splits,
    estimate_bytes,
    records_from_dataset,
    split_records,
)


class TestEstimateBytes:
    @pytest.mark.parametrize(
        "obj,expected",
        [
            (None, 1),
            (True, 1),
            (7, 8),
            (3.14, 8),
            ("abc", 4 + 3),
            (b"abcd", 4 + 4),
        ],
    )
    def test_primitives(self, obj, expected):
        assert estimate_bytes(obj) == expected

    def test_numpy_array(self):
        assert estimate_bytes(np.zeros(4)) == 4 + 32

    def test_numpy_scalars(self):
        assert estimate_bytes(np.int64(5)) == 8
        assert estimate_bytes(np.float32(1.0)) == 8

    def test_numpy_bool_like_python_bool(self):
        # regression: np.bool_ fell through every branch into the TypeError
        assert estimate_bytes(np.True_) == estimate_bytes(True) == 1
        assert estimate_bytes(np.False_) == 1
        assert estimate_bytes([np.bool_(True), np.bool_(False)]) == 4 + 2

    def test_containers(self):
        assert estimate_bytes((1, 2.0)) == 4 + 16
        assert estimate_bytes([1, 2, 3]) == 4 + 24
        assert estimate_bytes({"a": 1}) == 4 + (4 + 1) + 8

    def test_protocol_object(self):
        record = ObjectRecord("R", 1, np.zeros(3))
        # 1 tag + 8 id + 24 coords + 8 pid + 8 dist
        assert estimate_bytes(record) == 49

    def test_payload_counts(self):
        with_payload = ObjectRecord("S", 1, np.zeros(3), payload=100)
        assert estimate_bytes(with_payload) == 149

    def test_unsupported_raises(self):
        with pytest.raises(TypeError, match="estimate"):
            estimate_bytes(object())


class TestCounters:
    def test_incr_and_value(self):
        counters = Counters()
        counters.incr("g", "n", 3)
        counters.incr("g", "n")
        assert counters.value("g", "n") == 4

    def test_missing_is_zero(self):
        assert Counters().value("g", "n") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.incr("g", "x", 1)
        b.incr("g", "x", 2)
        b.incr("h", "y", 5)
        a.merge(b)
        assert a.value("g", "x") == 3
        assert a.value("h", "y") == 5

    def test_as_dict_sorted(self):
        counters = Counters()
        counters.incr("b", "z")
        counters.incr("a", "y")
        assert list(counters.as_dict()) == ["a", "b"]


class TestPartitioners:
    def test_hash_stable_and_in_range(self):
        partitioner = HashPartitioner()
        for key in [0, 17, "abc", (1, 2), b"xy", (1, "a")]:
            first = partitioner.assign(key, 7)
            assert 0 <= first < 7
            assert partitioner.assign(key, 7) == first

    def test_hash_spreads_keys(self):
        partitioner = HashPartitioner()
        buckets = {partitioner.assign(("key", i), 8) for i in range(100)}
        assert len(buckets) == 8

    def test_mod_is_identity_for_small_ints(self):
        partitioner = ModPartitioner()
        assert partitioner.assign(3, 10) == 3
        assert partitioner.assign(13, 10) == 3

    def test_hash_rejects_unhashable(self):
        with pytest.raises(TypeError):
            HashPartitioner().assign(object(), 4)


class TestSplits:
    def test_records_from_dataset_tags_and_payload(self):
        data = Dataset(np.zeros((3, 2)), payload_bytes=np.array([5, 6, 7]))
        records = records_from_dataset(data, "S")
        assert len(records) == 3
        assert all(tag == "S" for tag, _ in records)
        assert records[1][1].payload == 6

    def test_split_sizes(self):
        records = [("k", i) for i in range(10)]
        splits = split_records(records, 4)
        assert [len(s) for s in splits] == [4, 4, 2]
        assert [s.split_id for s in splits] == [0, 1, 2]

    def test_split_rejects_bad_size(self):
        with pytest.raises(ValueError):
            split_records([], 0)

    def test_dataset_splits_cover_r_then_s(self):
        r = Dataset(np.zeros((3, 2)), name="r")
        s = Dataset(np.ones((2, 2)), name="s")
        splits = dataset_splits(r, s, split_size=2)
        flat = [record for split in splits for record in split.records]
        assert [tag for tag, _ in flat] == ["R", "R", "R", "S", "S"]

    @staticmethod
    def _pair_facts(pairs):
        return [
            (
                key,
                record.dataset,
                record.object_id,
                type(record.object_id),
                record.payload,
                type(record.payload),
                record.point.tobytes(),
                record.partition_id,
            )
            for key, record in pairs
        ]

    @pytest.mark.parametrize("with_payload", [False, True])
    @pytest.mark.parametrize("split_size", [1, 3, 4, 5, 7, 12, 100])
    def test_lazy_dataset_splits_equal_the_eager_pairs(self, split_size, with_payload):
        """``dataset_splits`` == ``split_records(records_from_dataset(R) +
        records_from_dataset(S))`` pair for pair, R/S-straddling splits
        included — without building a record until a map task iterates."""
        rng = np.random.default_rng(4)

        def payload(n):
            return rng.integers(0, 50, n) if with_payload else None

        r = Dataset(rng.random((7, 3)), ids=np.arange(100, 107), payload_bytes=payload(7))
        s = Dataset(rng.random((5, 3)), ids=np.arange(5)[::-1].copy(), payload_bytes=payload(5))
        eager = split_records(
            records_from_dataset(r, "R") + records_from_dataset(s, "S"), split_size
        )
        lazy = dataset_splits(r, s, split_size)
        assert [split.split_id for split in lazy] == [split.split_id for split in eager]
        for lazy_split, eager_split in zip(lazy, eager, strict=True):
            # sized without iterating
            assert len(lazy_split) == len(lazy_split.records) == len(eager_split)
            assert lazy_split.logical_records == len(eager_split)
            facts = self._pair_facts(lazy_split.records)
            assert facts == self._pair_facts(eager_split.records)
            # re-iterable: a retried map task sees the same pairs again
            assert self._pair_facts(lazy_split.records) == facts

    def test_lazy_split_pickles_as_arrays_not_records(self):
        import pickle

        rng = np.random.default_rng(9)
        r = Dataset(rng.random((2000, 4)), payload_bytes=rng.integers(0, 9, 2000))
        (split,) = dataset_splits(r, r, 4000)
        blob = pickle.dumps(split, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"ObjectRecord" not in blob
        # ids + points + payloads of both halves, plus small framing
        assert len(blob) < 2 * 2000 * (8 + 4 * 8 + 8) + 2048
        restored = pickle.loads(blob)
        assert restored.logical_records == 4000
        assert self._pair_facts(restored.records) == self._pair_facts(split.records)

    def test_dataset_splits_edge_cases(self):
        empty = Dataset(np.zeros((0, 2)))
        assert dataset_splits(empty, empty, 4) == []
        with pytest.raises(ValueError, match="split_size"):
            dataset_splits(empty, empty, 0)
        only_s = dataset_splits(empty, Dataset(np.ones((3, 2))), 2)
        assert [[tag for tag, _ in split.records] for split in only_s] == [
            ["S", "S"],
            ["S"],
        ]
