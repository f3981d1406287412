"""Byte accounting for shuffled records.

The paper reports *shuffling cost* in gigabytes moved from mappers to
reducers.  A real Hadoop job serializes keys and values with Writables; this
module estimates those on-the-wire sizes without actually serializing,
using fixed-width primitives (8-byte ints/floats, UTF-8 strings) plus small
per-container framing.  Any object may opt in by exposing an
``estimated_bytes() -> int`` method (e.g. :class:`~repro.mapreduce.types.ObjectRecord`).
"""

from __future__ import annotations

import struct

import numpy as np

from .types import ColumnarBlock, NeighborBlock, RecordBlock

__all__ = [
    "estimate_bytes",
    "record_count",
    "shuffle_sort_key",
    "encode_block",
    "decode_block",
    "encode_record_block",
    "decode_record_block",
    "encode_neighbor_block",
    "decode_neighbor_block",
]

#: per-container framing overhead (length prefix), bytes
_FRAME = 4


def record_count(value: object) -> int:
    """Logical records a shuffled value represents.

    A :class:`~repro.mapreduce.types.ColumnarBlock` counts its rows; any
    other value is one record.  All shuffle and task accounting goes through
    this, so columnar blocks stay invisible to the paper's record-count
    metrics.
    """
    if isinstance(value, ColumnarBlock):
        return len(value)
    return 1


def estimate_bytes(obj: object) -> int:
    """Estimated serialized size of a key or value, in bytes.

    Raises ``TypeError`` for unsupported types rather than guessing — shuffle
    accounting is a headline measurement and must not silently drift.
    """
    if obj is None:
        return 1
    if isinstance(obj, (bool, np.bool_)):
        # np.bool_ is not an int/np.integer subclass: without this it would
        # fall through every branch and hit the TypeError below
        return 1
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, (float, np.floating)):
        return 8
    if isinstance(obj, str):
        return _FRAME + len(obj.encode("utf-8"))
    if isinstance(obj, (bytes, bytearray)):
        return _FRAME + len(obj)
    if isinstance(obj, np.ndarray):
        return _FRAME + int(obj.nbytes)
    estimator = getattr(obj, "estimated_bytes", None)
    if callable(estimator):
        return int(estimator())
    if isinstance(obj, (tuple, list)):
        return _FRAME + sum(estimate_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return _FRAME + sum(
            estimate_bytes(key) + estimate_bytes(value) for key, value in obj.items()
        )
    raise TypeError(
        f"cannot estimate serialized size of {type(obj).__name__}; "
        "add an estimated_bytes() method"
    )


def shuffle_sort_key(key: object) -> tuple:
    """Total-order sort key for heterogeneous shuffle keys.

    Hadoop sorts serialized bytes, so a job may freely mix key types; naive
    ``sorted(keys)`` raises ``TypeError`` as soon as e.g. ``int`` and ``str``
    keys meet in one reducer.  This key ranks values by a type class first
    (numbers < strings < bytes < sequences < everything else) and compares
    natively within a class, so same-type jobs keep their historical order
    and mixed-type jobs get a deterministic one.
    """
    if key is None:
        return (0, 0)
    if isinstance(key, (bool, int, float, np.integer, np.floating, np.bool_)):
        return (1, key)  # mixed numerics compare exactly, no float coercion
    if isinstance(key, str):
        return (2, key)
    if isinstance(key, (bytes, bytearray)):
        return (3, bytes(key))
    if isinstance(key, (tuple, list)):
        return (4, tuple(shuffle_sort_key(item) for item in key))
    # exotic same-type keys still work if orderable; unorderable ones raise,
    # as they always did
    return (5, type(key).__name__, key)


# -- columnar wire formats -----------------------------------------------------
#
# The canonical byte encoding of each block type, as the spill segments and
# the segment-backed DFS frame it: a fixed header followed by the column
# buffers.  The in-memory shuffle passes blocks by reference and only
# *estimates* sizes.  A block's ``wire_tag`` names its codec; callers go
# through encode_block/decode_block and never name a block type.


def encode_block(block: ColumnarBlock) -> bytes:
    """Wire bytes of a columnar block, by the codec its ``wire_tag`` names."""
    if block.wire_tag == RecordBlock.wire_tag:
        return encode_record_block(block)
    return encode_neighbor_block(block)


def decode_block(tag: int, data: bytes) -> ColumnarBlock:
    """Inverse of :func:`encode_block` for a payload stored under ``tag``."""
    if tag == RecordBlock.wire_tag:
        return decode_record_block(data)
    if tag == NeighborBlock.wire_tag:
        return decode_neighbor_block(data)
    raise ValueError(f"unknown value tag {tag}")


_BLOCK_MAGIC = b"RBLK"
_BLOCK_HEADER = struct.Struct("<4sII")  # magic, rows, dims


def encode_record_block(block: RecordBlock) -> bytes:
    """Serialize a block to the compact columnar wire format."""
    rows = len(block)
    dims = block.points.shape[1] if block.points.ndim == 2 else 0
    return b"".join(
        (
            _BLOCK_HEADER.pack(_BLOCK_MAGIC, rows, dims),
            np.ascontiguousarray(block.is_r, dtype=np.uint8).tobytes(),
            np.ascontiguousarray(block.object_ids, dtype=np.int64).tobytes(),
            np.ascontiguousarray(block.points, dtype=np.float64).tobytes(),
            np.ascontiguousarray(block.payloads, dtype=np.int64).tobytes(),
            np.ascontiguousarray(block.partition_ids, dtype=np.int64).tobytes(),
            np.ascontiguousarray(block.pivot_distances, dtype=np.float64).tobytes(),
        )
    )


#: bytes per row beyond the point coordinates: is_r (1) + object_ids (8) +
#: payloads (8) + partition_ids (8) + pivot_distances (8)
_ROW_FIXED_BYTES = 1 + 8 + 8 + 8 + 8


def decode_record_block(data: bytes) -> RecordBlock:
    """Inverse of :func:`encode_record_block`.

    Validates the buffer length against the header before touching any
    column, so a truncated or padded stream raises a clear ``ValueError``
    instead of a cryptic ``numpy.frombuffer`` error partway through.
    """
    if len(data) < _BLOCK_HEADER.size:
        raise ValueError(
            f"truncated RecordBlock stream: {len(data)} bytes is shorter "
            f"than the {_BLOCK_HEADER.size}-byte header"
        )
    magic, rows, dims = _BLOCK_HEADER.unpack_from(data)
    if magic != _BLOCK_MAGIC:
        raise ValueError("not a RecordBlock byte stream")
    expected = _BLOCK_HEADER.size + rows * (_ROW_FIXED_BYTES + 8 * dims)
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        raise ValueError(
            f"{kind} RecordBlock stream: header declares {rows} rows x "
            f"{dims} dims ({expected} bytes), got {len(data)} bytes"
        )
    offset = _BLOCK_HEADER.size

    def column(dtype, count, shape=None):
        nonlocal offset
        array = np.frombuffer(data, dtype=dtype, count=count, offset=offset).copy()
        offset += array.nbytes
        return array if shape is None else array.reshape(shape)

    return RecordBlock(
        is_r=column(np.uint8, rows).astype(bool),
        object_ids=column(np.int64, rows),
        points=column(np.float64, rows * dims, shape=(rows, dims)),
        payloads=column(np.int64, rows),
        partition_ids=column(np.int64, rows),
        pivot_distances=column(np.float64, rows),
    )


_NEIGHBOR_MAGIC = b"NBLK"
_NEIGHBOR_HEADER = struct.Struct("<4sII")  # magic, rows, candidates


def encode_neighbor_block(block: NeighborBlock) -> bytes:
    """Serialize a candidate-list block: header, ``r_ids``, per-row list
    lengths (offsets are rebuilt on decode), ``ids``, ``dists``."""
    return b"".join(
        (
            _NEIGHBOR_HEADER.pack(_NEIGHBOR_MAGIC, len(block), block.ids.shape[0]),
            np.ascontiguousarray(block.r_ids, dtype=np.int64).tobytes(),
            np.diff(block.offsets).astype(np.int64).tobytes(),
            np.ascontiguousarray(block.ids, dtype=np.int64).tobytes(),
            np.ascontiguousarray(block.dists, dtype=np.float64).tobytes(),
        )
    )


def decode_neighbor_block(data: bytes) -> NeighborBlock:
    """Inverse of :func:`encode_neighbor_block`, with the same up-front
    length validation as :func:`decode_record_block`."""
    if len(data) < _NEIGHBOR_HEADER.size:
        raise ValueError(
            f"truncated NeighborBlock stream: {len(data)} bytes is shorter "
            f"than the {_NEIGHBOR_HEADER.size}-byte header"
        )
    magic, rows, candidates = _NEIGHBOR_HEADER.unpack_from(data)
    if magic != _NEIGHBOR_MAGIC:
        raise ValueError("not a NeighborBlock byte stream")
    expected = _NEIGHBOR_HEADER.size + 16 * rows + 16 * candidates
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        raise ValueError(
            f"{kind} NeighborBlock stream: header declares {rows} rows x "
            f"{candidates} candidates ({expected} bytes), got {len(data)} bytes"
        )
    columns = np.frombuffer(data, dtype=np.int64, offset=_NEIGHBOR_HEADER.size)
    counts = columns[rows : 2 * rows]
    if int(counts.sum()) != candidates or (counts < 0).any():
        raise ValueError(
            f"corrupt NeighborBlock stream: row lengths sum to {int(counts.sum())}, "
            f"header declares {candidates} candidates"
        )
    return NeighborBlock.from_counts(
        columns[:rows].copy(),
        counts,
        columns[2 * rows : 2 * rows + candidates].copy(),
        columns[2 * rows + candidates :].view(np.float64).copy(),
    )
