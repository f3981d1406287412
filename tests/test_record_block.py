"""Unit tests for the columnar shuffle block and its accounting contract.

The contract under test: a :class:`RecordBlock` is an *encoding*, never a
unit of account — shuffle counters, task statistics and byte estimates must
be identical whether the same rows move one per value or as blocks.
"""

import pickle

import numpy as np
import pytest

from repro.mapreduce import (
    BlockBufferingMapper,
    Context,
    LocalRuntime,
    Mapper,
    MapReduceJob,
    ModPartitioner,
    RecordBlock,
    Reducer,
    decode_record_block,
    encode_record_block,
    estimate_bytes,
    record_count,
    split_records,
)
from repro.mapreduce.types import ROLE_BOTH, ROLE_R, ROLE_S


def sample_block(n=10, dims=3, seed=0, codes=0):
    """``n`` annotated rows: roles R, S and both in turn, cells ``row % 4``,
    ``codes`` random anchor codes each."""
    rng = np.random.default_rng(seed)
    block = RecordBlock.of_objects(
        np.array([ROLE_R, ROLE_S, ROLE_BOTH])[np.arange(n) % 3],
        np.arange(n),
        rng.random((n, dims)),
        rng.integers(0, 50, size=n),
    )
    block.partition_ids = (np.arange(n) % 4).astype(np.int32)
    block.pivot_distances = rng.random(n)
    block.anchor_codes = rng.integers(0, 256, size=(n, codes), dtype=np.uint8)
    return block


def one_row_blocks(block):
    """The rows of ``block`` as one single-row block each."""
    return [block.take(np.array([row])) for row in range(len(block))]


class TestRoundTrip:
    def test_of_objects_keeps_dataset_views(self):
        ids = np.arange(10, 16)
        points = np.random.default_rng(1).random((6, 2))
        payloads = np.arange(6, dtype=np.int64)
        block = RecordBlock.of_objects(ROLE_S, ids[2:5], points[2:5], payloads[2:5])
        for column, source in ((block.object_ids, ids), (block.points, points),
                               (block.payloads, payloads)):
            assert np.shares_memory(column, source)
        assert block.role.dtype == np.uint8 and block.role.tolist() == [ROLE_S] * 3
        assert block.partition_ids.tolist() == [-1] * 3
        assert np.isnan(block.pivot_distances).all()
        assert RecordBlock.of_objects(ROLE_R, ids, points).payloads.tolist() == [0] * 6

    def test_role_bits(self):
        block = sample_block(6)
        assert block.is_r.tolist() == [True, False, True] * 2
        assert block.is_s.tolist() == [False, True, True] * 2

    @pytest.mark.parametrize("role", (ROLE_R, ROLE_S))
    def test_copies_of_stamps_one_role(self, role):
        """A consumer shipping the roles apart gets one copy per role of a
        row of both: the rows holding the bit, in order, in that role alone."""
        block = sample_block(9)
        copies = block.copies_of(role)
        holding = np.flatnonzero(block.role & role)
        assert copies.role.tolist() == [role] * holding.size
        assert np.array_equal(copies.object_ids, block.object_ids[holding])
        assert copies.estimated_bytes() == block.take(holding).estimated_bytes()

    def test_gather_concatenates_in_order(self):
        block = sample_block(8)
        gathered = RecordBlock.gather([block.take(np.arange(3)), block.take(np.arange(3, 8))])
        assert gathered.object_ids.tolist() == list(range(8))
        assert np.array_equal(gathered.points, block.points)

    def test_gather_empty(self):
        assert len(RecordBlock.gather([])) == 0

    def test_take_preserves_row_order(self):
        block = sample_block(6)
        sub = block.take(np.array([4, 1, 3]))
        assert sub.object_ids.tolist() == [4, 1, 3]

    def test_split_by_groups_rows_stably(self):
        block = sample_block(10)
        parts = dict(block.split_by(block.partition_ids))
        assert sorted(parts) == [0, 1, 2, 3]
        for pid, sub in parts.items():
            assert np.all(sub.partition_ids == pid)
            # arrival order preserved within the group
            assert np.all(np.diff(sub.object_ids) > 0)

    def test_pickle_round_trip(self):
        # __reduce__ uses positional args derived from the field list; a
        # field-order drift would scramble blocks in the process engine
        block = sample_block(5, codes=3)
        clone = pickle.loads(pickle.dumps(block))
        assert type(clone) is RecordBlock
        for name in ("role", "object_ids", "points", "payloads", "partition_ids",
                     "pivot_distances", "anchor_codes"):
            assert np.array_equal(getattr(clone, name), getattr(block, name)), name


class TestWireFormat:
    def test_encode_decode_round_trip(self):
        block = sample_block(7)
        clone = decode_record_block(encode_record_block(block))
        assert np.array_equal(clone.role, block.role) and clone.role.dtype == np.uint8
        assert np.array_equal(clone.object_ids, block.object_ids)
        assert np.array_equal(clone.points, block.points)
        assert np.array_equal(clone.payloads, block.payloads)
        assert np.array_equal(clone.partition_ids, block.partition_ids)
        assert np.array_equal(clone.pivot_distances, block.pivot_distances)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="RecordBlock"):
            decode_record_block(b"JUNK" + b"\x00" * 16)

    def test_truncated_stream_rejected(self):
        # regression: used to surface as a cryptic numpy frombuffer error
        encoded = encode_record_block(sample_block(7))
        for cut in (len(encoded) - 1, len(encoded) // 2, 13):
            with pytest.raises(ValueError, match="truncated RecordBlock"):
                decode_record_block(encoded[:cut])

    def test_short_header_rejected(self):
        with pytest.raises(ValueError, match="shorter than the .*header"):
            decode_record_block(b"RBLK\x01")

    def test_oversized_stream_rejected(self):
        encoded = encode_record_block(sample_block(3))
        with pytest.raises(ValueError, match="oversized RecordBlock"):
            decode_record_block(encoded + b"\x00" * 8)


class TestAccountingInvisibility:
    def test_record_count(self):
        block = sample_block(9)
        assert record_count(block) == 9
        assert record_count(block.take(np.array([0]))) == 1
        assert record_count("a plain value") == 1

    @pytest.mark.parametrize("codes", (0, 3, 4))
    def test_estimated_bytes_is_per_record_sum(self, codes):
        for dims in (1, 3, 10):
            block = sample_block(12, dims=dims, codes=codes)
            # tag + id + coordinates + int32 cell id + pivot distance + anchor
            # codes + payload, per row
            per_row = [
                1 + 8 + 8 * dims + 4 + 8 + codes + int(payload) for payload in block.payloads
            ]
            assert estimate_bytes(block) == sum(per_row)
            assert sum(estimate_bytes(row) for row in one_row_blocks(block)) == sum(per_row)


class TestWeightedChunking:
    """Split and DFS chunk boundaries are logical-record positions."""

    def test_split_records_slices_blocks_at_seed_boundaries(self):
        from repro.mapreduce import weighted_record_chunks

        block = sample_block(50)
        per_row = [(0, row) for row in one_row_blocks(block)]
        as_blocks = [
            (0, block.take(np.arange(33))),
            (0, block.take(np.arange(33, 50))),
        ]
        seed_layout = [
            sum(record_count(v) for _, v in chunk)
            for chunk in weighted_record_chunks(per_row, 16)
        ]
        block_layout = [
            sum(record_count(v) for _, v in chunk)
            for chunk in weighted_record_chunks(as_blocks, 16)
        ]
        assert block_layout == seed_layout == [16, 16, 16, 2]
        # row content at each boundary matches too
        flat = [
            object_id
            for chunk in weighted_record_chunks(as_blocks, 16)
            for _, value in chunk
            for object_id in value.object_ids.tolist()
        ]
        assert flat == list(range(50))

    def test_split_records_unchanged_for_plain_records(self):
        records = [(i, i) for i in range(10)]
        splits = split_records(records, 4)
        assert [len(s.records) for s in splits] == [4, 4, 2]

    def test_trailing_zero_row_blocks_dropped(self):
        # regression: a trailing chunk of only zero-row blocks became a
        # split with 0 logical records, inflating task counts
        from repro.mapreduce import weighted_record_chunks

        empty = RecordBlock.gather([])
        stream = [(0, sample_block(8)), (0, empty), (1, empty)]
        chunks = list(weighted_record_chunks(stream, 4))
        assert [sum(record_count(v) for _, v in c) for c in chunks] == [4, 4]
        splits = split_records(stream, 4)
        assert all(
            sum(record_count(v) for _, v in split.records) > 0 for split in splits
        )

    def test_all_zero_row_blocks_yield_nothing(self):
        from repro.mapreduce import weighted_record_chunks

        empty = RecordBlock.gather([])
        assert list(weighted_record_chunks([(0, empty), (1, empty)], 4)) == []

    def test_zero_row_blocks_before_records_ride_along(self):
        from repro.mapreduce import weighted_record_chunks

        empty = RecordBlock.gather([])
        stream = [(0, empty), (0, sample_block(3))]
        chunks = list(weighted_record_chunks(stream, 4))
        assert len(chunks) == 1 and len(chunks[0]) == 2

    def test_dfs_record_count_weighs_blocks(self):
        from repro.mapreduce import DistributedFileSystem

        dfs = DistributedFileSystem(num_nodes=3, chunk_records=8)
        dfs.put("blocks", [(0, sample_block(20))])
        file = dfs._files["blocks"]
        assert file.record_count() == 20
        assert [len(s.records) > 0 for s in dfs.splits("blocks")]
        assert sum(
            record_count(v) for s in dfs.splits("blocks") for _, v in s.records
        ) == 20
        assert len(dfs.splits("blocks")) == 3  # 8 + 8 + 4 logical records


class SprayRowsMapper(Mapper):
    """Row-at-a-time routing by object id: one single-row value per row."""

    def map(self, key, value, ctx: Context):
        yield int(value.object_ids[0]) % ctx.num_reducers, value


class SprayBlocksMapper(BlockBufferingMapper):
    """Identical routing decision, emitted as columnar sub-blocks."""

    def route_block(self, block: RecordBlock, ctx: Context):
        yield from block.split_by(block.object_ids % ctx.num_reducers)


class CountRecordsReducer(Reducer):
    def reduce(self, key, values, ctx: Context):
        yield key, sum(record_count(value) for value in values)


class GatherRowsReducer(Reducer):
    """Hands a key's rows back as one block."""

    def reduce(self, key, values, ctx: Context):
        yield key, RecordBlock.gather(values)


class TestRolesCrossEveryBoundary:
    def test_rows_of_both_roles_arrive_unchanged(self, tmp_path):
        """Rows of R, S and both roles, read from the segment-backed DFS and
        shuffled through spill segments by ``processes-pooled`` workers,
        arrive with every column unchanged."""
        from repro.mapreduce import DistributedFileSystem

        block = sample_block(30)
        job = MapReduceJob(
            name="roles",
            mapper_factory=SprayBlocksMapper,
            reducer_factory=GatherRowsReducer,
            partitioner=ModPartitioner(),
            num_reducers=3,
        )
        with DistributedFileSystem(
            num_nodes=2, chunk_records=8, segment_backed=True, segment_dir=str(tmp_path / "dfs")
        ) as dfs, LocalRuntime(
            engine="processes-pooled", max_workers=2, memory_budget=64,
            spill_dir=str(tmp_path / "spill"),
        ) as runtime:
            dfs.put("rows", [(0, block)])
            result = runtime.run(job, dfs.splits("rows"))
        assert result.stats.spill_segments > 0
        returned = RecordBlock.gather(value for _, value in result.outputs)
        returned = returned.take(np.argsort(returned.object_ids))
        assert returned.role.dtype == np.uint8
        assert np.count_nonzero(returned.role == ROLE_BOTH) == 10
        for name in ("role", "object_ids", "points", "payloads", "partition_ids",
                     "pivot_distances"):
            assert np.array_equal(getattr(returned, name), getattr(block, name)), name


class TestShuffleParity:
    """The same job row by row vs columnar: identical accounting everywhere."""

    def run(self, mapper_factory):
        records = [
            (int(row.object_ids[0]), row) for row in one_row_blocks(sample_block(60, seed=3))
        ]
        job = MapReduceJob(
            name="parity",
            mapper_factory=mapper_factory,
            reducer_factory=CountRecordsReducer,
            partitioner=ModPartitioner(),
            num_reducers=3,
        )
        return LocalRuntime().run(job, split_records(records, 16))

    def test_blocks_invisible_to_all_counters(self):
        per_record = self.run(SprayRowsMapper)
        columnar = self.run(SprayBlocksMapper)
        assert columnar.stats.shuffle_records == per_record.stats.shuffle_records == 60
        assert columnar.stats.shuffle_bytes == per_record.stats.shuffle_bytes
        assert dict(columnar.outputs) == dict(per_record.outputs)
        assert [t.input_records for t in columnar.stats.map_tasks] == [
            t.input_records for t in per_record.stats.map_tasks
        ]
        assert [t.output_records for t in columnar.stats.map_tasks] == [
            t.output_records for t in per_record.stats.map_tasks
        ]
        assert [t.input_records for t in columnar.stats.reduce_tasks] == [
            t.input_records for t in per_record.stats.reduce_tasks
        ]
