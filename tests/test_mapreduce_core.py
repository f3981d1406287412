"""Unit tests for serialization, counters, partitioners and splits."""

import numpy as np
import pytest

from repro.core import Dataset
from repro.mapreduce import (
    Counters,
    HashPartitioner,
    ModPartitioner,
    RecordBlock,
    dataset_splits,
    estimate_bytes,
    split_records,
)
from repro.mapreduce.splits import self_join_splits
from repro.mapreduce.types import ID_DTYPES, ROLE_BOTH, ROLE_R, ROLE_S


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
        row = RecordBlock.of_objects(ROLE_R, np.array([1]), np.zeros((1, 3)))
        # 1 role + 8 id + 24 coords + 1 unassigned (int8) pid + 8 dist (no
        # anchor codes); 45 while the cell id was an int32
        assert estimate_bytes(row) == 42
        row.anchor_codes = np.zeros((1, 3), dtype=np.uint8)
        assert estimate_bytes(row) == 45
        row.object_ids, row.partition_ids = row.object_ids.astype(np.int16), np.zeros(1, np.int32)
        assert estimate_bytes(row) == 45 - 6 + 3

    def test_payload_counts(self):
        with_payload = RecordBlock.of_objects(
            ROLE_S, np.array([1]), np.zeros((1, 3)), np.array([100])
        )
        assert estimate_bytes(with_payload) == 142

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
    @pytest.mark.parametrize(
        "key,expected",
        [(0, 0), (17, 3), ("abc", 5), ("knn", 3), ((1, 2), 1), (b"xy", 6), ((1, "a"), 1), (2.5, 6)],
    )
    def test_hash_stable_and_in_range(self, key, expected):
        # literals, not a second call: a salted hash (builtin ``hash`` of a
        # str varies with PYTHONHASHSEED) would agree with itself in-process
        # yet route a key to another reducer in another worker or rerun
        assert HashPartitioner().assign(key, 7) == expected

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
        assert [[(tag, len(block)) for tag, block in split.records] for split in splits] == [
            [("R", 2)],
            [("R", 1), ("S", 1)],
            [("S", 1)],
        ]
        assert all(
            (block.role == (ROLE_R if tag == "R" else ROLE_S)).all()
            for split in splits
            for tag, block in split.records
        )

    @staticmethod
    def _row_facts(pairs):
        facts = []
        for key, block in pairs:
            assert (block.role.dtype, block.payloads.dtype) == (np.uint8, np.int64)
            assert block.object_ids.dtype in ID_DTYPES
            facts += [
                (
                    key,
                    int(block.role[row]),
                    int(block.object_ids[row]),
                    int(block.payloads[row]),
                    block.points[row].tobytes(),
                    int(block.partition_ids[row]),
                )
                for row in range(len(block))
            ]
        return facts

    @pytest.mark.parametrize("with_payload", [False, True])
    @pytest.mark.parametrize("split_size", [1, 3, 4, 5, 7, 12, 100])
    def test_dataset_splits_equal_the_chunked_blocks(self, split_size, with_payload):
        """``dataset_splits`` == ``split_records`` over one whole-dataset
        block per side, row for row, R/S-straddling splits included — with
        the point and payload columns left as views of the datasets, and the
        ids in the narrowest dtype that holds both datasets' (int8 here)."""
        rng = np.random.default_rng(4)

        def payload(n):
            return rng.integers(0, 50, n) if with_payload else None

        r = Dataset(rng.random((7, 3)), ids=np.arange(100, 107), payload_bytes=payload(7))
        s = Dataset(rng.random((5, 3)), ids=np.arange(5)[::-1].copy(), payload_bytes=payload(5))
        whole = [
            (tag, RecordBlock.of_objects(role, data.ids, data.points, data.payload_bytes))
            for tag, role, data in (("R", ROLE_R, r), ("S", ROLE_S, s))
        ]
        chunked = split_records(whole, split_size)
        splits = dataset_splits(r, s, split_size)
        assert [split.split_id for split in splits] == [split.split_id for split in chunked]
        for split, reference in zip(splits, chunked, strict=True):
            assert split.logical_records == sum(len(block) for _, block in reference.records)
            assert self._row_facts(split.records) == self._row_facts(reference.records)
            for tag, block in split.records:
                data = r if tag == "R" else s
                assert block.object_ids.dtype == np.int8
                assert np.shares_memory(block.points, data.points)
                if with_payload:
                    assert np.shares_memory(block.payloads, data.payload_bytes)

    def test_split_pickles_as_column_slices(self):
        import pickle

        rng = np.random.default_rng(9)
        r = Dataset(rng.random((2000, 4)), payload_bytes=rng.integers(0, 9, 2000))
        (split,) = dataset_splits(r, r, 4000)
        blob = pickle.dumps(split, protocol=pickle.HIGHEST_PROTOCOL)
        # the six columns of both halves (tag, id, 4 coords, payload, cell,
        # distance), plus small framing — no per-row objects
        assert len(blob) < 2 * 2000 * (1 + 2 + 4 * 8 + 8 + 1 + 8) + 2048
        restored = pickle.loads(blob)
        assert restored.logical_records == 4000
        assert self._row_facts(restored.records) == self._row_facts(split.records)

    @pytest.mark.parametrize("with_payload", [False, True])
    @pytest.mark.parametrize("size,split_size", [(1, 1), (7, 3), (12, 4), (10, 4), (9, 100)])
    def test_self_join_splits_read_each_object_once_within_r_s_splits(
        self, size, split_size, with_payload
    ):
        """One block of views per split, its rows of both roles, the dataset
        covered once in order, and each split inside one split of ``R ∪ S``
        in either role."""
        rng = np.random.default_rng(size)
        payload = rng.integers(0, 50, size) if with_payload else None
        data = Dataset(rng.random((size, 2)), ids=np.arange(size) * 3, payload_bytes=payload)
        splits = self_join_splits(data, split_size)
        bounds = [0]
        for index, split in enumerate(splits):
            ((tag, block),) = split.records
            assert (split.split_id, tag, split.logical_records) == (index, "RS", len(block))
            assert (block.role == ROLE_BOTH).all()
            assert np.shares_memory(block.points, data.points)
            assert np.array_equal(block.object_ids, data.ids[bounds[-1] : bounds[-1] + len(block)])
            bounds.append(bounds[-1] + len(block))
        assert bounds[-1] == size
        for a, b in zip(bounds, bounds[1:]):
            for offset in (0, size):  # as R rows, then as S rows of R ∪ S
                assert (a + offset) // split_size == (b - 1 + offset) // split_size

    def test_dataset_splits_edge_cases(self):
        empty = Dataset(np.zeros((0, 2)))
        assert dataset_splits(empty, empty, 4) == []
        assert self_join_splits(empty, 4) == []
        with pytest.raises(ValueError, match="split_size"):
            dataset_splits(empty, empty, 0)
        with pytest.raises(ValueError, match="split_size"):
            self_join_splits(empty, 0)
        only_s = dataset_splits(empty, Dataset(np.ones((3, 2))), 2)
        assert [[(tag, len(block)) for tag, block in split.records] for split in only_s] == [
            [("S", 2)],
            [("S", 1)],
        ]
