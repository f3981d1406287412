"""Integration tests for shuffle-cost accounting across the join pipelines."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BlockJoinConfig, PgbjConfig, run_join
from repro.core import Dataset
from repro.datasets import generate_osm
from repro.mapreduce import (
    LocalRuntime,
    Mapper,
    MapReduceJob,
    RecordBlock,
    Reducer,
    estimate_bytes,
    record_count,
    split_records,
)
from repro.mapreduce.shuffle import block_runs, coalesce_emissions


class TestPayloadBytes:
    def test_payloads_ride_the_shuffle(self):
        """The same geometry with payloads must shuffle strictly more bytes."""
        with_payload = generate_osm(400, seed=1, with_payload=True)
        without_payload = Dataset(
            with_payload.points.copy(), ids=with_payload.ids.copy(), name="bare"
        )
        config = PgbjConfig(k=3, num_reducers=4, num_pivots=12, seed=2)
        heavy = run_join("pgbj", with_payload, with_payload, config)
        light = run_join("pgbj", without_payload, without_payload, config)
        assert heavy.shuffle_bytes() > light.shuffle_bytes()
        # identical geometry -> identical results and replica counts
        assert heavy.result.same_distances_as(light.result)
        assert heavy.replication_of_s() == light.replication_of_s()

    def test_payload_volume_roughly_accounted(self):
        data = generate_osm(300, seed=3)
        config = BlockJoinConfig(k=3, num_reducers=4, seed=2)
        outcome = run_join("hbrj", data, data, config)
        # each object (and its payload) crosses the shuffle sqrt(N)=2 times
        payload_volume = int(data.payload_bytes.sum())
        assert outcome.job_stats[0].shuffle_bytes > 2 * payload_volume


class TestCostFormulae:
    def test_block_framework_record_count(self, small_uniform):
        """First-job shuffle = sqrt(N) * (|R| + |S|) records exactly."""
        config = BlockJoinConfig(k=3, num_reducers=9, seed=0)
        outcome = run_join("hbrj", small_uniform, small_uniform, config)
        expected = config.num_blocks * (2 * len(small_uniform))
        assert outcome.job_stats[0].shuffle_records == expected

    def test_merge_job_record_count(self, small_uniform):
        """Second-job shuffle = one candidate list per (r, block)."""
        config = BlockJoinConfig(k=3, num_reducers=9, seed=0)
        outcome = run_join("hbrj", small_uniform, small_uniform, config)
        expected = config.num_blocks * len(small_uniform)
        assert outcome.job_stats[1].shuffle_records == expected

    def test_pgbj_beats_broadcast_bound(self, small_forest):
        """PGBJ replication never exceeds the |R| + N*|S| broadcast bound."""
        config = PgbjConfig(k=5, num_reducers=6, num_pivots=16, seed=1)
        outcome = run_join("pgbj", small_forest, small_forest, config)
        join_records = outcome.job_stats[1].shuffle_records
        assert join_records <= len(small_forest) + 6 * len(small_forest)

    def test_more_pivots_reduce_replication(self, small_forest):
        """Section 5's motivation: finer cells -> tighter bounds -> fewer replicas."""
        replication = {}
        for num_pivots in (8, 48):
            config = PgbjConfig(k=5, num_reducers=4, num_pivots=num_pivots, seed=3)
            outcome = run_join("pgbj", small_forest, small_forest, config)
            replication[num_pivots] = outcome.replication_of_s()
        assert replication[48] <= replication[8]


# -- per-key block coalescing ----------------------------------------------------

_COALESCE_KEYS = st.sampled_from([0, 1, 2, "a", (1, "x"), np.int64(1), 1.0, True])


def rows_block(ids) -> RecordBlock:
    """A block whose every column is derived from its (unique) row ids."""
    ids = np.asarray(ids, dtype=np.int64)
    return RecordBlock(
        role=(ids % 3 + 1).astype(np.uint8),  # R, S and both roles
        object_ids=ids,
        points=np.stack([ids * 0.5, ids * 2.0], axis=1),
        payloads=ids % 7,
        partition_ids=ids % 3,
        pivot_distances=ids * 0.25,
    )


@st.composite
def _emissions(draw):
    """Blocks (0-4 rows) and scalars under mixed keys; every row gets a
    globally unique id so sequences can be compared by id."""
    shapes = draw(
        st.lists(
            st.tuples(_COALESCE_KEYS, st.sampled_from(["block", "scalar"]),
                      st.integers(0, 4)),
            max_size=40,
        )
    )
    emissions, next_id = [], 0
    for key, kind, rows in shapes:
        if kind == "block":
            value = rows_block(range(next_id, next_id + rows))
            next_id += rows
        else:
            value = float(next_id)
            next_id += 1
        emissions.append((key, value))
    return emissions


def _key_sequences(emissions):
    """Per dict-key: the concatenated row ids (scalars as ``("scalar", v)``)."""
    sequences: dict = {}
    for key, value in emissions:
        rows = sequences.setdefault(key, [])
        if isinstance(value, RecordBlock):
            rows.extend(
                (int(i), value.points[n].tobytes(), int(value.payloads[n]),
                 int(value.partition_ids[n]), float(value.pivot_distances[n]),
                 int(value.role[n]))
                for n, i in enumerate(value.object_ids)
            )
        else:
            rows.append(("scalar", value))
    return sequences


class TestBlockCoalescing:
    @settings(max_examples=200, deadline=None)
    @given(emissions=_emissions())
    def test_coalescing_preserves_rows_and_accounting(self, emissions):
        merged = coalesce_emissions(list(emissions))
        # every key's concatenated row sequence, values and order, survives
        assert _key_sequences(merged) == _key_sequences(emissions)
        # record and byte accounting are sums over rows: totals cannot move
        assert sum(record_count(v) for _, v in merged) == sum(
            record_count(v) for _, v in emissions
        )
        assert sum(
            estimate_bytes(k) * record_count(v) + estimate_bytes(v) for k, v in merged
        ) == sum(
            estimate_bytes(k) * record_count(v) + estimate_bytes(v)
            for k, v in emissions
        )
        # no key is left with two adjacent blocks in its arrival sequence
        # (unless the key's wire size changed: True / 1 / 1.0 share a slot)
        last_block_width: dict = {}
        for key, value in merged:
            width = estimate_bytes(key) if isinstance(value, RecordBlock) else None
            assert width is None or last_block_width.get(key) != width
            last_block_width[key] = width
        # a run of one is passed through by identity (pickle sharing of one
        # sub-block emitted under many keys depends on it)
        runs = block_runs(emissions)
        assert len(merged) == len(runs)
        for run, (_, value) in zip(runs, merged):
            if len(run) == 1:
                assert value is emissions[run[0]][1]

    def test_shared_sub_block_under_many_keys_stays_one_object(self):
        sub = rows_block(range(5))
        merged = coalesce_emissions([(key, sub) for key in range(4)])
        assert [key for key, _ in merged] == [0, 1, 2, 3]
        assert all(value is sub for _, value in merged)

    def test_non_block_value_closes_the_run(self):
        a, b, c = rows_block([0, 1]), rows_block([2]), rows_block([3, 4])
        merged = coalesce_emissions([(7, a), (7, b), (7, "x"), (7, c), (8, a)])
        assert [key for key, _ in merged] == [7, 7, 7, 8]
        assert merged[0][1].object_ids.tolist() == [0, 1, 2]
        assert merged[1][1] == "x" and merged[2][1] is c and merged[3][1] is a

    def test_map_only_job_output_structure_untouched(self):
        """A map-only job's emissions are its output (the next job's split
        layout and ``output_bytes``): one block per emission, as emitted."""
        blocks = [rows_block([0, 1]), rows_block([2]), rows_block([3])]
        job = MapReduceJob(name="m", mapper_factory=_SameKeyBlocks)
        result = LocalRuntime().run(job, split_records([(0, blocks)], 1))
        assert [len(value) for _, value in result.outputs] == [2, 1, 1]
        with_reduce = MapReduceJob(
            name="r", mapper_factory=_SameKeyBlocks, reducer_factory=_RowIds
        )
        result = LocalRuntime().run(with_reduce, split_records([(0, blocks)], 1))
        assert result.outputs == [(5, [0, 1, 2, 3])]
        assert result.stats.shuffle_records == 4
        assert result.stats.map_tasks[0].output_records == 4


class _SameKeyBlocks(Mapper):
    def map(self, key, value, ctx):
        for block in value:
            yield 5, block


class _RowIds(Reducer):
    def reduce(self, key, values, ctx):
        yield key, RecordBlock.gather(values).object_ids.tolist()
