"""The id and cell-id dtypes a join ships, and that nothing downstream can tell.

:func:`~repro.mapreduce.splits.id_dtype` picks, once per join, the narrowest
of ``int8 → int16 → int32 → int64`` that holds every id of R and S; the
splits carry both datasets' ids in it, and the partitioning job writes cell
ids in the narrowest that holds ``0..M − 1``
(:func:`~repro.mapreduce.splits.cell_dtype`).  Both block types carry their
ids at that width and both codecs name it in a header byte per id column.
Consumers widen to int64 before any arithmetic, sort or sentinel, so a join
on narrow ids must answer, count and replicate exactly as the same join
shipping int64 ids — only its shuffle bytes fall, by ``8 − w`` bytes per
shuffled object row and per shuffled candidate.
"""

import struct

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.joins.block_framework import block_of_ids
from repro.joins.pgbj import GroupRoutingMapper
from repro.joins.registry import available_joins, get_join, run_join
from repro.mapreduce import splits
from repro.mapreduce.job import Context
from repro.mapreduce.serialization import (
    decode_neighbor_block,
    decode_record_block,
    encode_neighbor_block,
    encode_record_block,
)
from repro.mapreduce.splits import cell_dtype, dataset_splits, id_dtype, self_join_splits
from repro.mapreduce.types import ID_DTYPES, ROLE_BOTH, ROLE_R, ROLE_S, NeighborBlock, RecordBlock
from tests.reference_pgbj import routing_cache
from tests.test_plan_equivalence import env_params

INT8, INT16, INT32, INT64 = ID_DTYPES
WIDTHS = [pytest.param(dtype, id=dtype.name) for dtype in ID_DTYPES]

#: header bytes of the two codecs, and where their id dtype bytes sit
RECORD_HEADER = struct.Struct("<4sIIIBBB")  # ..., coordinate, id, cell id dtypes
NEIGHBOR_HEADER = struct.Struct("<4sIIBB")  # ..., r id, neighbour id dtypes
RECORD_ID_BYTES = {"object id": 17, "cell id": 18}
NEIGHBOR_ID_BYTES = {"r id": 12, "neighbour id": 13}


def extreme_ids(dtype, count: int, seed: int) -> np.ndarray:
    """``count`` int64 ids within ``dtype``'s range, both of its ends present."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    ids = rng.integers(info.min, info.max, size=count, endpoint=True)
    ids[:2] = info.min, info.max
    return rng.permutation(ids)


class TestLadder:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([], INT8),
            ([0, 5, -3], INT8),
            ([-128, 127], INT8),
            ([-127, 127], INT8),
            ([128], INT16),
            ([-129], INT16),
            ([-32767, 32767], INT16),
            ([-32768, 32767], INT16),
            ([32768], INT32),
            ([-(2**31 - 1), 2**31 - 1], INT32),
            ([2**31], INT64),
            ([-(2**31) - 1], INT64),
            ([2**62], INT64),
            ([-(2**63), 2**63 - 1], INT64),
        ],
    )
    def test_narrowest_rung_that_holds_every_id(self, values, expected):
        assert id_dtype(np.array(values, dtype=np.int64)) == expected

    def test_r_and_s_share_the_widest_need(self):
        r = Dataset(np.zeros((3, 2)), ids=np.array([-128, 0, 127]))
        s = Dataset(np.ones((2, 2)), ids=np.array([5, 300]))
        assert id_dtype(r.ids) == INT8 and id_dtype(s.ids) == INT16
        blocks = [block for split in dataset_splits(r, s, 2) for _, block in split.records]
        assert {block.object_ids.dtype for block in blocks} == {INT16}

    def test_self_join_splits_narrow_too(self):
        data = Dataset(np.zeros((4, 2)), ids=np.array([-40000, 0, 1, 40000]))
        ((_, block),) = self_join_splits(data, 10)[0].records
        assert block.object_ids.dtype == INT32
        assert block.object_ids.tolist() == data.ids.tolist()

    @pytest.mark.parametrize(
        "cells, expected",
        [(1, INT8), (128, INT8), (129, INT16), (32768, INT16), (32769, INT32)],
    )
    def test_cell_ids_hold_zero_to_m_minus_one(self, cells, expected):
        assert cell_dtype(cells) == expected

    def test_unassigned_rows_carry_an_int8_cell(self):
        block = RecordBlock.of_objects(ROLE_R, np.arange(3, dtype=np.int16), np.zeros((3, 2)))
        assert block.object_ids.dtype == INT16
        assert block.partition_ids.dtype == INT8 and (block.partition_ids == -1).all()


# -- the codecs at every width --------------------------------------------------


def record_block(id_type, cell_type, rows=9, codes=3, seed=0) -> RecordBlock:
    rng = np.random.default_rng(seed)
    block = RecordBlock.of_objects(
        np.array([ROLE_R, ROLE_S, ROLE_BOTH])[np.arange(rows) % 3],
        extreme_ids(id_type, rows, seed).astype(id_type),
        rng.integers(-5, 5, size=(rows, 2)).astype(np.int8),
        rng.integers(0, 50, size=rows),
    )
    info = np.iinfo(cell_type)
    block.partition_ids = rng.integers(0, info.max, size=rows, endpoint=True).astype(cell_type)
    block.pivot_distances = rng.random(rows)
    block.anchor_codes = rng.integers(0, 256, size=(rows, codes), dtype=np.uint8)
    return block


def neighbor_block(id_type, rows=6, seed=0) -> NeighborBlock:
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, rows)
    ids = extreme_ids(id_type, int(counts.sum()) + rows, seed)
    return NeighborBlock.from_counts(
        ids[:rows], counts, rng.permutation(ids[rows:]), rng.random(int(counts.sum())), id_type
    )


def assert_same_columns(a, b) -> None:
    for name in a.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), name


@pytest.mark.parametrize("id_type", WIDTHS)
class TestCodecs:
    @pytest.mark.parametrize("cell_type", WIDTHS)
    def test_record_block_round_trip(self, id_type, cell_type):
        block = record_block(id_type, cell_type)
        data = encode_record_block(block)
        assert data[RECORD_ID_BYTES["object id"]] == ID_DTYPES.index(id_type)
        assert data[RECORD_ID_BYTES["cell id"]] == ID_DTYPES.index(cell_type)
        assert_same_columns(decode_record_block(data), block)
        # the stream is the estimate (less payload bytes, plus the payload
        # column) plus the header
        payload = int(block.payloads.sum())
        assert len(data) == RECORD_HEADER.size + block.estimated_bytes() - payload + 8 * len(block)
        row = 1 + id_type.itemsize + 2 + cell_type.itemsize + 8 + 3
        assert block.estimated_bytes() == len(block) * row + payload

    def test_neighbor_block_round_trip(self, id_type):
        block = neighbor_block(id_type)
        data = encode_neighbor_block(block)
        assert data[NEIGHBOR_ID_BYTES["r id"]] == data[NEIGHBOR_ID_BYTES["neighbour id"]] == (
            ID_DTYPES.index(id_type)
        )
        assert_same_columns(decode_neighbor_block(data), block)
        candidates = len(block.ids)
        assert block.estimated_bytes() == 12 * len(block) + (id_type.itemsize + 8) * candidates

    def test_take_gather_keep_the_width(self, id_type):
        block = neighbor_block(id_type, rows=8)
        halves = [block.take(np.arange(0, 3)), block.take(np.arange(3, len(block)))]
        assert all(half.ids.dtype == half.r_ids.dtype == id_type for half in halves)
        assert_same_columns(NeighborBlock.gather(halves), block)
        records = record_block(id_type, INT16)
        parts = [records.take(np.arange(4)), records.take(np.arange(4, 9))]
        assert_same_columns(RecordBlock.gather(parts), records)

    @pytest.mark.parametrize("delta", (-1, 1, -RECORD_HEADER.size))
    def test_wrong_length_is_refused(self, id_type, delta):
        records = encode_record_block(record_block(id_type, INT8))
        lists = encode_neighbor_block(neighbor_block(id_type))
        for data, decode, kind in (
            (records, decode_record_block, "RecordBlock"),
            (lists, decode_neighbor_block, "NeighborBlock"),
        ):
            broken = data[:delta] if delta < 0 else data + b"\0" * delta
            state = "truncated" if delta < 0 else "oversized"
            with pytest.raises(ValueError, match=f"{state} {kind} stream"):
                decode(broken)

    def test_a_stream_read_at_another_width_is_refused(self, id_type):
        data = bytearray(encode_record_block(record_block(id_type, INT8)))
        for other, dtype in enumerate(ID_DTYPES):
            if dtype != id_type:
                data[RECORD_ID_BYTES["object id"]] = other
                with pytest.raises(ValueError, match="RecordBlock stream: header declares"):
                    decode_record_block(bytes(data))


@pytest.mark.parametrize("byte", (len(ID_DTYPES), 9, 255))
@pytest.mark.parametrize("column", list(RECORD_ID_BYTES) + list(NEIGHBOR_ID_BYTES))
def test_unknown_id_dtype_byte_is_refused(column, byte):
    if column in RECORD_ID_BYTES:
        data = bytearray(encode_record_block(record_block(INT16, INT8)))
        offset, decode, kind = RECORD_ID_BYTES[column], decode_record_block, "RecordBlock"
    else:
        data = bytearray(encode_neighbor_block(neighbor_block(INT16)))
        offset, decode, kind = NEIGHBOR_ID_BYTES[column], decode_neighbor_block, "NeighborBlock"
    data[offset] = byte
    with pytest.raises(ValueError, match=f"unknown {kind} {column} dtype {byte}"):
        decode(bytes(data))


# -- every join at each width's extremes ----------------------------------------

#: rung -> largest magnitude of its world's ids
EXTREMES = {INT8: 127, INT16: 32767, INT32: 2**31 - 1}
KNN_JOINS = available_joins()


def extreme_world(rung, seed: int, rows: int = 48) -> Dataset:
    """Distinct ids spanning ``±EXTREMES[rung]``, both extremes present, on a
    small integer grid, so distances tie and the id tie-break decides."""
    top = EXTREMES[rung]
    rng = np.random.default_rng(seed)
    drawn = np.unique(rng.integers(-top + 1, top, size=4 * rows))
    inner = rng.choice(drawn, rows - 2, replace=False)
    ids = rng.permutation(np.concatenate([[top, -top], inner]))
    points = rng.integers(0, 4, size=(rows, 3)).astype(float)
    return Dataset(points, ids=ids, name=f"{rung}-{seed}")


def run(name, r, s, metric, monkeypatch, wide: bool):
    with monkeypatch.context() as patch:
        if wide:
            patch.setattr(splits, "id_dtype", lambda *arrays: INT64)
        # the CI legs inject their engine / spill budget here
        config = get_join(name).make_config(
            k=3, num_pivots=6, num_reducers=3, split_size=20, metric_name=metric, **env_params()
        )
        return run_join(name, r, s, config)


def neighbours(outcome) -> list:
    rows = []
    for r_id in outcome.result.r_ids():
        ids, dists = outcome.result.neighbors_of(r_id)
        assert ids.dtype == np.int64 and dists.dtype == np.float64
        rows.append((r_id, ids.tobytes(), dists.tobytes()))
    return rows


def assert_narrow_equals_wide(narrow, wide, width: int) -> None:
    assert neighbours(narrow) == neighbours(wide)
    assert narrow.distance_pairs == wide.distance_pairs
    assert narrow.replication_of_s() == wide.replication_of_s()
    assert narrow.shuffle_records() == wide.shuffle_records()
    saved = 8 - width
    stages = zip(wide.job_stats.names, narrow.job_stats, wide.job_stats)
    handed_on = (0, 0)  # the lists a z-order job hands the last copy's, and their bytes saved
    for stage, narrow_stats, wide_stats in stages:
        records = wide_stats.shuffle_records
        assert narrow_stats.shuffle_records == records, stage
        lighter = wide_stats.shuffle_bytes - narrow_stats.shuffle_bytes
        if stage.endswith("/merge"):
            # a list is an 8-byte key, a 12-byte frame and 16 bytes a
            # candidate at int64; each candidate's id is 8 - w bytes lighter
            assert lighter * 16 == saved * (wide_stats.shuffle_bytes - 20 * records), stage
        else:
            # each shuffled object row's id is 8 - w bytes lighter, and each
            # candidate of the lists an earlier curve copy hands on
            lists, lists_lighter = handed_on if stage == "zorder/last" else (0, 0)
            assert lighter == saved * (records - lists) + lists_lighter, stage
        handed_on = (
            sum(task.output_records for task in wide_stats.reduce_tasks),
            wide_stats.output_bytes - narrow_stats.output_bytes,
        )
    assert narrow.shuffle_bytes() < wide.shuffle_bytes()


@pytest.mark.parametrize("metric", ("l1", "l2", "linf"))
@pytest.mark.parametrize("rung", list(EXTREMES), ids=lambda rung: rung.name)
class TestOverflowSafety:
    @pytest.mark.parametrize("name", KNN_JOINS)
    def test_join_equals_its_int64_run(self, name, rung, metric, monkeypatch):
        r, s = extreme_world(rung, 1), extreme_world(rung, 2)
        assert id_dtype(r.ids, s.ids) == rung
        narrow = run(name, r, s, metric, monkeypatch, wide=False)
        wide = run(name, r, s, metric, monkeypatch, wide=True)
        assert_narrow_equals_wide(narrow, wide, rung.itemsize)

    @pytest.mark.parametrize("name", KNN_JOINS)
    def test_self_join_equals_its_int64_run(self, name, rung, metric, monkeypatch):
        data = extreme_world(rung, 5)
        narrow = run(name, data, data, metric, monkeypatch, wide=False)
        wide = run(name, data, data, metric, monkeypatch, wide=True)
        assert_narrow_equals_wide(narrow, wide, rung.itemsize)


# -- the id arithmetic of the routing mappers ------------------------------------


@pytest.mark.parametrize("rung", list(EXTREMES), ids=lambda rung: rung.name)
def test_block_of_ids_agrees_on_narrow_and_int64_ids(rung):
    ids = extreme_ids(rung, 200, seed=3)
    for num_blocks in (1, 3, 7, 16, 255):
        narrow = block_of_ids(ids.astype(rung), num_blocks)
        assert np.array_equal(narrow, block_of_ids(ids, num_blocks))


@pytest.mark.parametrize("groups", (1, 4))
@pytest.mark.parametrize("rung", list(EXTREMES), ids=lambda rung: rung.name)
def test_group_routing_agrees_on_narrow_and_int64_ids(rung, groups):
    """The routing mapper sends the same rows, in the same roles, to the
    same group keys whatever width the ids travel in, and a routed block
    keeps the narrow width it was handed."""
    rng = np.random.default_rng(groups)
    rows, cells = 300, 8
    ids = extreme_ids(rung, rows, seed=groups)
    cell_of = np.sort(rng.integers(0, cells, rows))
    cache = routing_cache(rng, {cell: cell % groups for cell in range(cells)}, groups)
    codes = rng.integers(0, 256, (rows, 3)).astype(np.uint8)
    roles = rng.choice([ROLE_R, ROLE_S, ROLE_BOTH], rows).astype(np.uint8)

    def routed(id_type):
        block = RecordBlock(
            role=roles,
            object_ids=ids.astype(id_type),
            points=np.zeros((rows, 2)),
            payloads=np.zeros(rows, dtype=np.int64),
            partition_ids=cell_of.astype(np.int8),
            pivot_distances=np.linspace(0, 1, rows),
            anchor_codes=codes,
        )
        ctx = Context("map-0", cache, num_reducers=groups)
        mapper = GroupRoutingMapper()
        mapper.setup(ctx)
        out = list(mapper.route_block(block, ctx))
        assert all(sub.object_ids.dtype == id_type for _, sub in out)
        return [(key, sub.object_ids.tolist(), sub.role.tolist()) for key, sub in out]

    narrow = routed(rung)
    assert narrow == routed(INT64)
    assert len({key for key, _, _ in narrow}) == groups
