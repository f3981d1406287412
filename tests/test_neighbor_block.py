"""Unit tests for the columnar candidate-list block and the merge job on it.

The contract mirrors ``tests/test_record_block.py``: a
:class:`NeighborBlock` is an *encoding* of per-``r`` ``(ids, dists)`` lists,
never a unit of account, and it crosses every boundary the runtime has —
process, spill segment, DFS chunk — through the same ``ColumnarBlock``
protocol the object blocks use.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KnnJoinResult
from repro.joins.block_framework import (
    CandidateMergeReducer,
    candidate_emissions,
    merge_candidates,
    merged_result,
)
from repro.mapreduce import (
    ColumnarBlock,
    Context,
    DistributedFileSystem,
    HashPartitioner,
    NeighborBlock,
    RecordBlock,
    estimate_bytes,
    iter_segment,
    merged_segment_groups,
    record_count,
    split_records,
)
from repro.mapreduce.serialization import (
    decode_block,
    decode_neighbor_block,
    encode_block,
    encode_neighbor_block,
)
from repro.mapreduce.shuffle import (
    SpillMapWriter,
    SpillSpec,
    block_runs,
    coalesce_emissions,
)
from tests.reference_zorder import row_merge


def sample_lists(rows=9, seed=0, max_len=6):
    """``[(r_id, ids, dists)]`` with ragged (and some empty) lists."""
    rng = np.random.default_rng(seed)
    lists = []
    for row in range(rows):
        size = int(rng.integers(0, max_len + 1))
        lists.append(
            (
                100 + row,
                rng.integers(0, 1000, size=size).astype(np.int64),
                rng.random(size),
            )
        )
    return lists


as_block = NeighborBlock.from_lists


def same_lists(block: NeighborBlock, lists) -> bool:
    got = list(block.lists())
    return len(got) == len(lists) and all(
        a[0] == b[0] and np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
        for a, b in zip(got, lists)
    )


class TestShape:
    def test_is_a_columnar_block_with_its_own_tag(self):
        block = as_block(sample_lists())
        assert isinstance(block, ColumnarBlock)
        assert NeighborBlock.wire_tag not in (0, RecordBlock.wire_tag)

    def test_lists_round_trip(self):
        lists = sample_lists()
        block = as_block(lists)
        assert len(block) == len(lists)
        assert block.offsets[0] == 0 and block.offsets[-1] == block.ids.size
        assert same_lists(block, lists)

    def test_empty_block(self):
        block = as_block([])
        assert len(block) == 0 and block.estimated_bytes() == 0
        assert block.ids.dtype == np.int64 and block.dists.dtype == np.float64
        assert len(NeighborBlock.gather([])) == 0

    def test_gather_preserves_row_order(self):
        lists = sample_lists(12, seed=3)
        parts = [as_block(lists[:5]), as_block(lists[5:6]), as_block([]), as_block(lists[6:])]
        assert same_lists(NeighborBlock.gather(parts), lists)
        assert same_lists(NeighborBlock.gather(iter(parts)), lists)

    def test_take_selects_rows_in_the_given_order(self):
        lists = sample_lists(10, seed=4)
        rows = np.array([7, 0, 0, 3, 9])
        assert same_lists(as_block(lists).take(rows), [lists[row] for row in rows])
        assert len(as_block(lists).take(np.array([], dtype=np.int64))) == 0

    def test_split_by_groups_rows_stably(self):
        lists = sample_lists(11, seed=5)
        block = as_block(lists)
        parts = dict(block.split_by(block.r_ids % 3))
        assert sorted(parts) == [0, 1, 2]
        for key, part in parts.items():
            assert same_lists(part, [row for row in lists if row[0] % 3 == key])

    def test_pickle_round_trip(self):
        lists = sample_lists()
        assert same_lists(pickle.loads(pickle.dumps(as_block(lists))), lists)


class TestAccountingInvisibility:
    @given(st.integers(0, 500), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_counts_and_bytes_equal_the_row_form(self, seed, rows):
        lists = sample_lists(rows, seed=seed)
        block = as_block(lists)
        assert record_count(block) == len(lists)
        assert estimate_bytes(block) == sum(
            estimate_bytes((ids, dists)) for _, ids, dists in lists
        )

    def test_split_records_slices_blocks_at_row_boundaries(self):
        lists = sample_lists(10, seed=6)
        splits = split_records([(0, as_block(lists[:7])), (1, as_block(lists[7:]))], 4)
        assert [sum(len(v) for _, v in split.records) for split in splits] == [4, 4, 2]
        flat = [row for split in splits for _, value in split.records for row in value.lists()]
        assert same_lists(as_block(flat), lists)

    def test_dfs_chunks_weigh_rows_on_disk_and_in_ram(self, tmp_path):
        lists = sample_lists(10, seed=7)
        pairs = [(0, as_block(lists[:6])), (1, as_block(lists[6:]))]
        for backed in (False, True):
            with DistributedFileSystem(
                2, chunk_records=4, segment_backed=backed, segment_dir=str(tmp_path)
            ) as dfs:
                file = dfs.put("candidates", pairs)
                assert file.record_count() == 10 and file.chunk_record_counts == [4, 4, 2]
                assert file.total_bytes == sum(
                    8 * len(block) + block.estimated_bytes() for _, block in pairs
                )
                read = [row for _, block in dfs.read("candidates") for row in block.lists()]
                assert same_lists(as_block(read), lists)


class TestWireFormat:
    def test_encode_decode_round_trip(self):
        lists = sample_lists(8, seed=8)
        block = as_block(lists)
        assert same_lists(decode_neighbor_block(encode_neighbor_block(block)), lists)
        assert same_lists(decode_block(block.wire_tag, encode_block(block)), lists)
        assert len(decode_neighbor_block(encode_neighbor_block(as_block([])))) == 0

    def test_protocol_dispatch_covers_both_block_types(self):
        from tests.test_record_block import sample_block

        objects = sample_block(4)
        clone = decode_block(objects.wire_tag, encode_block(objects))
        assert np.array_equal(clone.object_ids, objects.object_ids)
        with pytest.raises(ValueError, match="unknown value tag 9"):
            decode_block(9, b"")

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="NeighborBlock"):
            decode_neighbor_block(b"JUNK" + b"\x00" * 16)

    def test_truncated_stream_rejected(self):
        encoded = encode_neighbor_block(as_block(sample_lists(7, seed=9)))
        for cut in (len(encoded) - 1, len(encoded) // 2, 13):
            with pytest.raises(ValueError, match="truncated NeighborBlock"):
                decode_neighbor_block(encoded[:cut])

    def test_short_header_rejected(self):
        with pytest.raises(ValueError, match="shorter than the .*header"):
            decode_neighbor_block(b"NBLK\x01")

    def test_oversized_stream_rejected(self):
        encoded = encode_neighbor_block(as_block(sample_lists(3, seed=10)))
        with pytest.raises(ValueError, match="oversized NeighborBlock"):
            decode_neighbor_block(encoded + b"\x00" * 16)

    def test_inconsistent_row_lengths_rejected(self):
        block = as_block(sample_lists(4, seed=11, max_len=3))
        encoded = bytearray(encode_neighbor_block(block))
        first_length = 14 + 8 * len(block)  # header, then r_ids, then lengths
        encoded[first_length : first_length + 8] = np.int64(999).tobytes()
        with pytest.raises(ValueError, match="corrupt NeighborBlock"):
            decode_neighbor_block(bytes(encoded))


class TestCoalescing:
    def test_runs_close_when_the_block_type_changes(self):
        from tests.test_record_block import sample_block

        objects = sample_block(2)
        lists = as_block(sample_lists(2))
        emissions = [(1, lists), (1, lists), (1, objects), (1, objects), (1, lists)]
        assert block_runs(emissions) == [[0, 1], [2, 3], [4]]
        merged = coalesce_emissions(emissions)
        assert [type(value) for _, value in merged] == [NeighborBlock, RecordBlock, NeighborBlock]
        assert [len(value) for _, value in merged] == [4, 4, 2]

    @pytest.mark.parametrize("budget", [None, 300, 1500])
    def test_one_entry_per_key_per_flush(self, tmp_path, budget):
        pairs = [(i % 4, as_block(sample_lists(2, seed=i))) for i in range(40)]
        spec = SpillSpec(str(tmp_path), budget, task_index=0, task_id="t-000")
        writer = SpillMapWriter(spec, 1, HashPartitioner(), num_reducers=2)
        for key, value in pairs:
            writer.add(key, value)
        manifest = writer.finish()
        assert manifest.entries == 40 and manifest.output_records == 80
        for segment in manifest.segments:
            keys = [key for _, _, key, _ in iter_segment(segment.path)]
            assert len(keys) == len(set(keys)) == segment.entries
        assert sum(s.records for s in manifest.segments) == 80
        assert sum(s.accounted_bytes for s in manifest.segments) == sum(
            8 * len(block) + block.estimated_bytes() for _, block in pairs
        )
        # the reducers still see every key's rows in arrival order
        for reducer in range(2):
            segments = [s for s in manifest.segments if s.reducer == reducer]
            for key, values in merged_segment_groups(segments):
                arrived = [
                    row for k, block in pairs if k == key for row in block.lists()
                ]
                assert same_lists(NeighborBlock.gather(values), arrived)


class TestMergeCandidates:
    def test_same_neighbour_from_several_sources_keeps_its_best_distance(self):
        block = as_block(
            [
                (5, np.array([10, 11, 12]), np.array([0.9, 0.2, 0.5])),
                (5, np.array([10, 13]), np.array([0.1, 0.3])),
                (5, np.array([10, 12]), np.array([0.4, 0.7])),
            ]
        )
        ((r_id, ids, dists),) = merge_candidates(block, 3).lists()
        assert r_id == 5
        assert ids.tolist() == [10, 11, 13]  # 10 once, at its smallest distance
        assert dists.tolist() == [0.1, 0.2, 0.3]

    def test_distance_ties_broken_by_id(self):
        block = as_block(
            [
                (1, np.array([30, 10]), np.array([0.5, 0.5])),
                (1, np.array([20, 40]), np.array([0.5, 0.25])),
            ]
        )
        ((_, ids, dists),) = merge_candidates(block, 3).lists()
        assert ids.tolist() == [40, 10, 20]
        assert dists.tolist() == [0.25, 0.5, 0.5]

    def test_rows_without_candidates_survive_as_empty_lists(self):
        empty = (np.array([], dtype=np.int64), np.array([]))
        block = as_block([(9, *empty), (3, np.array([1]), np.array([0.5])), (9, *empty)])
        merged = merge_candidates(block, 2)
        assert merged.r_ids.tolist() == [3, 9]
        assert [ids.tolist() for _, ids, _ in merged.lists()] == [[1], []]

    @given(st.integers(0, 2000), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_record_reducer(self, seed, k):
        rng = np.random.default_rng(seed)
        lists = []
        for _ in range(int(rng.integers(1, 25))):
            size = int(rng.integers(0, 7))
            lists.append(
                (
                    int(rng.integers(0, 6)),
                    rng.integers(0, 8, size=size).astype(np.int64),  # repeats
                    rng.integers(0, 4, size=size) / 4.0,  # ties
                )
            )
        merged = merge_candidates(as_block(lists), k)
        assert merged.r_ids.tolist() == sorted({r_id for r_id, _, _ in lists})
        for r_id, ids, dists in merged.lists():
            want_ids, want_dists = row_merge(
                [(i, d) for owner, i, d in lists if owner == r_id], k
            )
            assert ids.tolist() == want_ids.tolist()
            assert dists.tobytes() == want_dists.tobytes()

    def test_reducer_and_result_assembly(self):
        lists = sample_lists(12, seed=13, max_len=5)
        producer = Context("t", {"merge_reducers": 3}, 9)
        emissions = list(candidate_emissions(as_block(lists), producer, np.int32))
        assert [key for key, _ in emissions] == [0, 1, 2]
        reducer = CandidateMergeReducer()
        reducer.setup(Context("t", {"k": 2}, 3))
        outputs = [
            pair for key, block in emissions for pair in reducer.reduce(key, [block], None)
        ]
        result = merged_result(2, outputs)
        assert result.r_ids() == sorted(r_id for r_id, _, _ in lists)
        for r_id, ids, dists in lists:
            want_ids, want_dists = row_merge([(ids, dists)], 2)
            got_ids, got_dists = result.neighbors_of(r_id)
            assert got_ids.tolist() == want_ids.tolist()
            assert got_dists.tolist() == want_dists.tolist()


class TestResultBulkLoad:
    def test_add_many_equals_add(self):
        lists = sample_lists(6, seed=14)
        block = as_block(lists)
        bulk, single = KnnJoinResult(3), KnnJoinResult(3)
        bulk.add_many(block.r_ids, block.offsets, block.ids, block.dists)
        for r_id, ids, dists in lists:
            single.add(r_id, ids, dists)
        assert list(bulk.pairs()) == list(single.pairs())
        assert bulk.r_ids() == single.r_ids()

    def test_duplicates_rejected(self):
        block = as_block([(1, np.array([2]), np.array([0.5]))])
        result = KnnJoinResult(1)
        result.add_many(block.r_ids, block.offsets, block.ids, block.dists)
        with pytest.raises(ValueError, match="duplicate"):
            result.add_many(block.r_ids, block.offsets, block.ids, block.dists)
        twice = NeighborBlock.gather([block, block])
        with pytest.raises(ValueError, match="duplicate"):
            KnnJoinResult(1).add_many(twice.r_ids, twice.offsets, twice.ids, twice.dists)
        with pytest.raises(ValueError, match="align"):
            KnnJoinResult(1).add_many(block.r_ids, block.offsets, block.ids, block.dists[:0])
