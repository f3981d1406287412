"""The record codec at every coordinate width.

A join ships its coordinates in the narrowest dtype of
:data:`~repro.mapreduce.types.COORDINATE_DTYPES` that holds them; the codec
names that dtype in one header byte and writes the points at its width.
Each rung must round-trip bit for bit (dtype included), refuse a stream
whose length disagrees with the width its header declares, refuse a dtype
byte outside the ladder, and a job must not tell a spilled int16 block from
an in-memory one.
"""

import pickle
import struct

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.joins import PgbjConfig
from repro.joins.base import knobs_from_env
from repro.joins.registry import run_join
from repro.mapreduce import RecordBlock, decode_record_block, encode_record_block, estimate_bytes
from repro.mapreduce.shuffle import iter_segment, write_segment
from repro.mapreduce.types import COORDINATE_DTYPES, ROLE_BOTH, ROLE_R, ROLE_S

RUNGS = [pytest.param(dtype, id=dtype.name) for dtype in COORDINATE_DTYPES]

#: header bytes: magic, rows, dims, anchor codes, then the coordinate, id
#: and cell id dtypes
HEADER = struct.Struct("<4sIIIBBB")
#: offset of the coordinate dtype byte
DTYPE_BYTE = 16


def rung_block(dtype, rows=7, dims=3, codes=0, seed=0) -> RecordBlock:
    """``rows`` annotated rows whose points hold ``dtype``'s extremes."""
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype) if dtype.kind == "i" else np.finfo(dtype)
    if dtype.kind == "i":
        points = rng.integers(info.min, info.max, size=(rows, dims), endpoint=True)
    else:
        points = rng.uniform(-1, 1, size=(rows, dims)) * info.max
    points[0], points[-1] = info.min, info.max
    block = RecordBlock.of_objects(
        np.array([ROLE_R, ROLE_S, ROLE_BOTH])[np.arange(rows) % 3],
        np.arange(rows) * 11,
        points.astype(dtype),
        rng.integers(0, 50, size=rows),
    )
    block.partition_ids = (np.arange(rows) % 4).astype(np.int32)
    block.pivot_distances = rng.random(rows)
    block.anchor_codes = rng.integers(0, 256, size=(rows, codes), dtype=np.uint8)
    return block


def assert_same_block(a: RecordBlock, b: RecordBlock) -> None:
    for name in ("role", "object_ids", "points", "payloads", "partition_ids",
                 "pivot_distances", "anchor_codes"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), name


@pytest.mark.parametrize("codes", (0, 4))
@pytest.mark.parametrize("dtype", RUNGS)
class TestEveryRung:
    def test_roundtrip_keeps_dtype_and_bytes(self, dtype, codes):
        block = rung_block(dtype, codes=codes)
        data = encode_record_block(block)
        assert data[DTYPE_BYTE] == COORDINATE_DTYPES.index(dtype)
        decoded = decode_record_block(data)
        assert decoded.points.dtype == dtype
        assert_same_block(decoded, block)

    def test_stream_is_the_estimate_plus_header(self, dtype, codes):
        # the estimate charges w·d coordinate bytes a row, as the stream holds
        block = rung_block(dtype, codes=codes)
        width = 1 + 8 + 3 * dtype.itemsize + 4 + 8 + codes
        assert block.estimated_bytes() == len(block) * width + int(block.payloads.sum())
        payload_bytes = int(block.payloads.sum())
        assert len(encode_record_block(block)) == (
            HEADER.size + block.estimated_bytes() - payload_bytes + 8 * len(block)
        )

    def test_take_gather_and_pickle_keep_dtype(self, dtype, codes):
        block = rung_block(dtype, codes=codes)
        halves = [block.take(np.arange(0, 3)), block.take(np.arange(3, len(block)))]
        assert all(half.points.dtype == dtype for half in halves)
        assert_same_block(RecordBlock.gather(halves), block)
        assert_same_block(pickle.loads(pickle.dumps(block)), block)
        assert estimate_bytes(RecordBlock.gather(halves)) == estimate_bytes(block)

    @pytest.mark.parametrize("delta", (-1, 1, -HEADER.size))
    def test_wrong_length_is_refused_at_this_width(self, dtype, codes, delta):
        data = encode_record_block(rung_block(dtype, codes=codes))
        broken = data[:delta] if delta < 0 else data + b"\0" * delta
        kind = "truncated" if delta < 0 else "oversized"
        with pytest.raises(ValueError, match=f"{kind} RecordBlock stream"):
            decode_record_block(broken)

    def test_a_stream_read_at_another_width_is_refused(self, dtype, codes):
        # the same bytes under any other rung's dtype byte disagree in length
        data = bytearray(encode_record_block(rung_block(dtype, codes=codes)))
        for other in range(len(COORDINATE_DTYPES)):
            if COORDINATE_DTYPES[other].itemsize == dtype.itemsize:
                continue
            data[DTYPE_BYTE] = other
            with pytest.raises(ValueError, match="RecordBlock stream: header declares"):
                decode_record_block(bytes(data))

    def test_empty_block_roundtrips(self, dtype, codes):
        block = rung_block(dtype, codes=codes).take(np.arange(0))
        decoded = decode_record_block(encode_record_block(block))
        assert decoded.points.dtype == dtype
        assert decoded.points.shape == (0, 3)
        assert decoded.anchor_codes.shape == (0, codes)


@pytest.mark.parametrize("byte", (len(COORDINATE_DTYPES), 7, 255))
def test_unknown_dtype_byte_is_refused(byte):
    data = bytearray(encode_record_block(rung_block(np.dtype(np.int16))))
    data[DTYPE_BYTE] = byte
    with pytest.raises(ValueError, match=f"unknown RecordBlock coordinate dtype {byte}"):
        decode_record_block(bytes(data))


def test_segment_roundtrip_keeps_int16(tmp_path):
    block = rung_block(np.dtype(np.int16), codes=4)
    segment = write_segment(tmp_path / "b.seg", 0, [(0, 0, 5, block, len(block), 1)])
    ((_, _, _, decoded),) = list(iter_segment(segment.path))
    assert_same_block(decoded, block)


def test_spilled_int16_join_equals_the_in_memory_one():
    # an integral world ships int16 blocks; every job spills under budget 0
    # (on the engine a CI leg names)
    rng = np.random.default_rng(4)
    data = Dataset(rng.integers(-3000, 3000, size=(300, 4)).astype(float), name="ints")
    engine = knobs_from_env().get("engine", "serial")
    config = PgbjConfig(k=4, num_pivots=12, num_reducers=3, engine=engine)
    memory = run_join("pgbj", data, data, config.with_changes(memory_budget=None))
    spilled = run_join("pgbj", data, data, config.with_changes(memory_budget=0))
    assert spilled.spill_segments() > 0
    assert memory.spill_segments() == 0
    for r_id in memory.result.r_ids():
        ids, dists = memory.result.neighbors_of(r_id)
        other_ids, other_dists = spilled.result.neighbors_of(r_id)
        assert ids.tobytes() == other_ids.tobytes()
        assert dists.tobytes() == other_dists.tobytes()
    assert spilled.distance_pairs == memory.distance_pairs
    assert spilled.shuffle_records() == memory.shuffle_records()
    assert spilled.shuffle_bytes() == memory.shuffle_bytes()
