"""Unit tests for the sqrt(N) x sqrt(N) block framework."""

import numpy as np

from repro.joins.base import JoinConfig
from repro.joins.block_framework import (
    BlockRoutingMapper,
    block_join_spec,
    block_of,
    candidate_emissions,
    merge_job_spec,
)
from repro.mapreduce import Context, LocalRuntime, split_records
from repro.mapreduce.types import NeighborBlock, ObjectRecord


class TestBlockOf:
    def test_deterministic_and_in_range(self):
        for object_id in range(1000):
            block = block_of(object_id, 7)
            assert 0 <= block < 7
            assert block == block_of(object_id, 7)

    def test_roughly_uniform(self):
        counts = np.bincount([block_of(i, 4) for i in range(10_000)], minlength=4)
        assert counts.min() > 1800


class TestRoutingMapper:
    def run_mapper(self, record, num_blocks=3):
        # block-buffering mapper: map() buffers, cleanup() emits the blocks
        mapper = BlockRoutingMapper()
        ctx = Context("t", {"num_blocks": num_blocks}, num_reducers=num_blocks**2)
        mapper.setup(ctx)
        emissions = list(mapper.map(None, record, ctx))
        emissions.extend(mapper.cleanup(ctx))
        return emissions, ctx

    def test_r_goes_to_its_row(self):
        record = ObjectRecord("R", 5, np.zeros(2))
        emissions, _ = self.run_mapper(record)
        keys = [key for key, _ in emissions]
        row = block_of(5, 3)
        assert keys == [row * 3 + j for j in range(3)]
        assert all(len(block) == 1 for _, block in emissions)

    def test_s_goes_to_its_column(self):
        record = ObjectRecord("S", 5, np.zeros(2))
        emissions, ctx = self.run_mapper(record)
        keys = [key for key, _ in emissions]
        column = block_of(5, 3)
        assert keys == [i * 3 + column for i in range(3)]

    def test_s_replication_counted(self):
        record = ObjectRecord("S", 5, np.zeros(2))
        _, ctx = self.run_mapper(record, num_blocks=4)
        assert ctx.counters.value("shuffle", "s_replicas") == 4

    def test_vectorized_block_hash_matches_scalar(self):
        ids = np.arange(0, 5000, 7, dtype=np.int64)
        from repro.joins.block_framework import block_of_ids

        vectorized = block_of_ids(ids, 6)
        assert vectorized.tolist() == [block_of(int(i), 6) for i in ids]

    def test_every_pair_meets(self):
        """Any (r, s) id pair shares exactly one reducer."""
        num_blocks = 3
        for r_id in range(20):
            for s_id in range(20):
                r_keys = {block_of(r_id, num_blocks) * num_blocks + j for j in range(num_blocks)}
                s_keys = {i * num_blocks + block_of(s_id, num_blocks) for i in range(num_blocks)}
                assert len(r_keys & s_keys) == 1


def candidates(*rows):
    """``(r_id, ids, dists)`` rows as the merge job's input emissions."""
    block = NeighborBlock.from_lists(
        (r_id, np.array(ids), np.array(dists, dtype=float)) for r_id, ids, dists in rows
    )
    return list(candidate_emissions(block, Context("t", {"merge_reducers": 2}, 4)))


def run_merge_job(pairs, config):
    return LocalRuntime().run(merge_job_spec(config), split_records(pairs, config.split_size))


class TestMergeJob:
    def test_keeps_global_k_best(self):
        pairs = candidates(
            (1, [10, 11], [0.5, 0.9]), (1, [12, 13], [0.1, 0.7]), (2, [14], [0.3])
        )
        result = run_merge_job(pairs, JoinConfig(k=2, num_reducers=2))
        merged = {
            r_id: (ids, dists)
            for _, block in result.outputs
            for r_id, ids, dists in block.lists()
        }
        assert merged[1][0].tolist() == [12, 10]
        assert merged[1][1].tolist() == [0.1, 0.5]
        assert merged[2][0].tolist() == [14]

    def test_merge_shuffle_accounts_candidate_lists(self):
        pairs = candidates(*[(1, [10], [0.5])] * 5)
        result = run_merge_job(pairs, JoinConfig(k=1, num_reducers=2))
        assert result.stats.shuffle_records == 5
        # per list: 8-byte key + tuple frame + two framed 8-byte arrays
        assert result.stats.shuffle_bytes == 5 * (8 + 4 + 12 + 12)


class TestSpec:
    def test_reducer_count_is_blocks_squared(self):
        spec = block_join_spec("x", None, num_blocks=3, cache={})
        assert spec.num_reducers == 9
        assert spec.cache["num_blocks"] == 3
