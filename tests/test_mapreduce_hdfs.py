"""Unit tests for the DFS model."""

import pytest

from repro.mapreduce import DistributedFileSystem
from repro.mapreduce.types import ROLE_R, ROLE_S


def records(n):
    return [(i, float(i)) for i in range(n)]


class TestPutGet:
    def test_roundtrip(self):
        dfs = DistributedFileSystem(num_nodes=3, chunk_records=4)
        dfs.put("data", records(10))
        assert dfs.read("data") == records(10)

    def test_chunking(self):
        dfs = DistributedFileSystem(num_nodes=3, chunk_records=4)
        file = dfs.put("data", records(10))
        assert [len(c) for c in file.chunks] == [4, 4, 2]
        assert file.record_count() == 10

    def test_round_robin_placement(self):
        dfs = DistributedFileSystem(num_nodes=3, chunk_records=2)
        file = dfs.put("data", records(8))
        assert file.chunk_nodes == [0, 1, 2, 0]

    def test_overwrite(self):
        dfs = DistributedFileSystem(num_nodes=2)
        dfs.put("data", records(5))
        dfs.put("data", records(2))
        assert len(dfs.read("data")) == 2

    def test_empty_file(self):
        dfs = DistributedFileSystem(num_nodes=2, chunk_records=4)
        dfs.put("empty", [])
        assert dfs.read("empty") == []

    def test_exists_delete(self):
        dfs = DistributedFileSystem(num_nodes=2)
        dfs.put("data", records(1))
        assert dfs.exists("data")
        dfs.delete("data")
        assert not dfs.exists("data")
        dfs.delete("data")  # idempotent

    def test_missing_read_raises(self):
        with pytest.raises(KeyError):
            DistributedFileSystem(num_nodes=1).read("nope")


class TestSplits:
    def test_one_split_per_chunk_with_locality(self):
        dfs = DistributedFileSystem(num_nodes=2, chunk_records=3)
        dfs.put("data", records(7))
        splits = dfs.splits("data")
        assert len(splits) == 3
        assert [s.location for s in splits] == [0, 1, 0]
        assert sum(len(s) for s in splits) == 7


class TestBytes:
    def test_replication_multiplies_bytes(self):
        single = DistributedFileSystem(num_nodes=3, replication=1)
        triple = DistributedFileSystem(num_nodes=3, replication=3)
        single.put("data", records(10))
        triple.put("data", records(10))
        assert triple.file_bytes("data") == 3 * single.file_bytes("data")

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            DistributedFileSystem(num_nodes=0)
        with pytest.raises(ValueError):
            DistributedFileSystem(num_nodes=2, chunk_records=0)
        with pytest.raises(ValueError):
            DistributedFileSystem(num_nodes=2, replication=3)


class TestIncrementalRecordCount:
    def test_count_maintained_on_write(self):
        dfs = DistributedFileSystem(num_nodes=2, chunk_records=4)
        file = dfs.put("data", records(11))
        assert file.chunk_record_counts == [4, 4, 3]
        assert file.record_count() == 11

    def test_count_never_rescans_chunks(self):
        # record_count is consulted repeatedly during split planning; replace
        # the chunk lists with tripwires to prove no rescan happens
        class Untouchable(list):
            def __iter__(self):
                raise AssertionError("record_count rescanned a chunk")

        dfs = DistributedFileSystem(num_nodes=2, chunk_records=4)
        file = dfs.put("data", records(10))
        file.chunks = [Untouchable(chunk) for chunk in file.chunks]
        for _ in range(3):
            assert file.record_count() == 10

    def test_hand_built_file_falls_back_to_scan(self):
        from repro.mapreduce import DfsFile

        file = DfsFile(name="manual", chunks=[records(3), records(2)])
        assert file.record_count() == 5

    def test_block_weighted_counts(self):
        import numpy as np

        from repro.mapreduce import RecordBlock

        block = RecordBlock.of_objects(ROLE_R, np.arange(5), np.zeros((5, 2)))
        dfs = DistributedFileSystem(num_nodes=2, chunk_records=3)
        file = dfs.put("blocks", [(0, block)])
        assert file.record_count() == 5
        assert file.chunk_record_counts == [3, 2]  # sliced at the boundary


class TestSegmentBackedChunks:
    def make_dfs(self, tmp_path, chunk_records=4):
        return DistributedFileSystem(
            num_nodes=3,
            chunk_records=chunk_records,
            segment_backed=True,
            segment_dir=str(tmp_path),
        )

    def test_roundtrip_and_layout_match_in_ram_mode(self, tmp_path):
        plain = DistributedFileSystem(num_nodes=3, chunk_records=4)
        plain_file = plain.put("data", records(10))
        with self.make_dfs(tmp_path) as dfs:
            file = dfs.put("data", records(10))
            assert dfs.read("data") == plain.read("data")
            assert file.chunk_nodes == plain_file.chunk_nodes
            assert file.chunk_record_counts == plain_file.chunk_record_counts
            assert file.total_bytes == plain_file.total_bytes
            assert file.record_count() == 10

    def test_chunks_live_on_disk_not_in_ram(self, tmp_path):
        from repro.mapreduce import SegmentChunk

        with self.make_dfs(tmp_path) as dfs:
            file = dfs.put("data", records(10))
            assert all(isinstance(chunk, SegmentChunk) for chunk in file.chunks)
            segment_files = list(tmp_path.rglob("*.seg"))
            assert len(segment_files) == len(file.chunks)

    def test_splits_are_lazy_with_cached_weights(self, tmp_path):
        from repro.mapreduce import SegmentChunk

        with self.make_dfs(tmp_path) as dfs:
            dfs.put("data", records(10))
            splits = dfs.splits("data")
            assert all(isinstance(s.records, SegmentChunk) for s in splits)
            assert [s.logical_records for s in splits] == [4, 4, 2]
            # iterating a split decodes the chunk — twice works (no cache)
            assert list(splits[0].records) == records(10)[:4]
            assert list(splits[0].records) == records(10)[:4]

    def test_record_blocks_roundtrip(self, tmp_path):
        import numpy as np

        from repro.mapreduce import RecordBlock

        block = RecordBlock.of_objects(
            ROLE_S, np.arange(6), np.repeat(np.arange(6.0)[:, None], 2, axis=1)
        )
        with self.make_dfs(tmp_path) as dfs:
            dfs.put("blocks", [(7, block)])
            ((key1, part1), (key2, part2)) = dfs.read("blocks")
            assert key1 == 7 and key2 == 7
            assert isinstance(part1, RecordBlock)
            assert np.array_equal(
                np.concatenate([part1.object_ids, part2.object_ids]),
                block.object_ids,
            )

    def test_delete_and_overwrite_free_segment_files(self, tmp_path):
        with self.make_dfs(tmp_path) as dfs:
            dfs.put("data", records(10))
            first = list(tmp_path.rglob("*.seg"))
            dfs.put("data", records(4))  # overwrite: old files freed
            second = list(tmp_path.rglob("*.seg"))
            assert first and second and set(first).isdisjoint(second)
            dfs.delete("data")
            assert not list(tmp_path.rglob("*.seg"))

    def test_close_removes_directory(self, tmp_path):
        dfs = self.make_dfs(tmp_path)
        dfs.put("data", records(10))
        assert list(tmp_path.rglob("*.seg"))
        dfs.close()
        assert not any(tmp_path.iterdir())
        dfs.close()  # idempotent

    def test_empty_file(self, tmp_path):
        with self.make_dfs(tmp_path) as dfs:
            dfs.put("empty", [])
            assert dfs.read("empty") == []
            assert dfs.splits("empty")[0].logical_records == 0
