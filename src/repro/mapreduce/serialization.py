"""Byte accounting for shuffled records.

The paper reports *shuffling cost* in gigabytes moved from mappers to
reducers.  A real Hadoop job serializes keys and values with Writables sized
to the values; this module estimates those on-the-wire sizes without
actually serializing, using fixed-width primitives (8-byte scalars, UTF-8
strings, an array's own bytes) plus small per-container framing.  Any
object may opt in by exposing an ``estimated_bytes() -> int`` method.
Object rows travel only as columnar blocks, which do exactly that: a block
is charged the sum of its rows' wire sizes — its coordinates, ids and cell
ids at the widths of the dtypes its join ships them in — and counts its rows
as records, and below sits each block type's byte codec for spill segments
and the segment-backed DFS.
"""

from __future__ import annotations

import struct

import numpy as np

from .types import COORDINATE_DTYPES, ID_DTYPES, ColumnarBlock, NeighborBlock, RecordBlock

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
#: magic, rows, dims, anchor codes, then the dtypes of the coordinates (a
#: COORDINATE_DTYPES index), the object ids and the cell ids (ID_DTYPES indexes)
_BLOCK_HEADER = struct.Struct("<4sIIIBBB")


def _dtype_of(table: tuple, code: int, stream: str, column: str) -> np.dtype:
    """The dtype a header's byte names, or a ``ValueError`` naming the column."""
    if code >= len(table):
        raise ValueError(
            f"unknown {stream} {column} dtype {code}: "
            f"the header's dtype byte must be below {len(table)}"
        )
    return table[code]


def encode_record_block(block: RecordBlock) -> bytes:
    """Serialize a block to the compact columnar wire format, its points, ids
    and cell ids in their own dtypes."""
    rows = len(block)
    dims = block.points.shape[1] if block.points.ndim == 2 else 0
    header = _BLOCK_HEADER.pack(
        _BLOCK_MAGIC, rows, dims, block.anchor_codes.shape[1],
        COORDINATE_DTYPES.index(block.points.dtype),
        ID_DTYPES.index(block.object_ids.dtype),
        ID_DTYPES.index(block.partition_ids.dtype),
    )
    return b"".join(
        (
            header,
            np.ascontiguousarray(block.role, dtype=np.uint8).tobytes(),
            np.ascontiguousarray(block.object_ids).tobytes(),
            np.ascontiguousarray(block.points).tobytes(),
            np.ascontiguousarray(block.payloads, dtype=np.int64).tobytes(),
            np.ascontiguousarray(block.partition_ids).tobytes(),
            np.ascontiguousarray(block.pivot_distances, dtype=np.float64).tobytes(),
            np.ascontiguousarray(block.anchor_codes, dtype=np.uint8).tobytes(),
        )
    )


#: bytes per row beyond the ``w·d`` coordinate bytes, the id and cell id
#: widths and the ``C`` anchor codes: role (1) + payloads (8) +
#: pivot_distances (8)
_ROW_FIXED_BYTES = 1 + 8 + 8


class _Columns:
    """Reads consecutive columns out of a validated byte stream."""

    def __init__(self, data: bytes, offset: int) -> None:
        self._data, self._offset = data, offset

    def next(self, dtype, count: int, shape=None) -> np.ndarray:
        array = np.frombuffer(self._data, dtype=dtype, count=count, offset=self._offset).copy()
        self._offset += array.nbytes
        return array if shape is None else array.reshape(shape)


def decode_record_block(data: bytes) -> RecordBlock:
    """Inverse of :func:`encode_record_block`.

    Validates the header's dtypes and the buffer length they imply before
    touching any column, so an unknown dtype or a truncated or padded stream
    raises a clear ``ValueError`` instead of a cryptic ``numpy.frombuffer``
    error partway through.
    """
    if len(data) < _BLOCK_HEADER.size:
        raise ValueError(
            f"truncated RecordBlock stream: {len(data)} bytes is shorter "
            f"than the {_BLOCK_HEADER.size}-byte header"
        )
    magic, rows, dims, codes, point_code, id_code, cell_code = _BLOCK_HEADER.unpack_from(data)
    if magic != _BLOCK_MAGIC:
        raise ValueError("not a RecordBlock byte stream")
    dtype = _dtype_of(COORDINATE_DTYPES, point_code, "RecordBlock", "coordinate")
    id_dtype = _dtype_of(ID_DTYPES, id_code, "RecordBlock", "object id")
    cell_dtype = _dtype_of(ID_DTYPES, cell_code, "RecordBlock", "cell id")
    row_bytes = (
        _ROW_FIXED_BYTES + id_dtype.itemsize + dtype.itemsize * dims + cell_dtype.itemsize + codes
    )
    expected = _BLOCK_HEADER.size + rows * row_bytes
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        raise ValueError(
            f"{kind} RecordBlock stream: header declares {rows} rows x "
            f"{dims} {dtype} dims x {codes} codes ({expected} bytes), got {len(data)} bytes"
        )
    columns = _Columns(data, _BLOCK_HEADER.size)
    return RecordBlock(
        role=columns.next(np.uint8, rows),
        object_ids=columns.next(id_dtype, rows),
        points=columns.next(dtype, rows * dims, shape=(rows, dims)),
        payloads=columns.next(np.int64, rows),
        partition_ids=columns.next(cell_dtype, rows),
        pivot_distances=columns.next(np.float64, rows),
        anchor_codes=columns.next(np.uint8, rows * codes, shape=(rows, codes)),
    )


_NEIGHBOR_MAGIC = b"NBLK"
#: magic, rows, candidates, then the dtypes of ``r_ids`` and ``ids`` (ID_DTYPES indexes)
_NEIGHBOR_HEADER = struct.Struct("<4sIIBB")


def encode_neighbor_block(block: NeighborBlock) -> bytes:
    """Serialize a candidate-list block: header, ``r_ids``, per-row list
    lengths (offsets are rebuilt on decode), ``ids``, ``dists``."""
    header = _NEIGHBOR_HEADER.pack(
        _NEIGHBOR_MAGIC, len(block), block.ids.shape[0],
        ID_DTYPES.index(block.r_ids.dtype), ID_DTYPES.index(block.ids.dtype),
    )
    return b"".join(
        (
            header,
            np.ascontiguousarray(block.r_ids).tobytes(),
            np.diff(block.offsets).astype(np.int64).tobytes(),
            np.ascontiguousarray(block.ids).tobytes(),
            np.ascontiguousarray(block.dists, dtype=np.float64).tobytes(),
        )
    )


def decode_neighbor_block(data: bytes) -> NeighborBlock:
    """Inverse of :func:`encode_neighbor_block`, with the same up-front
    dtype and length validation as :func:`decode_record_block`."""
    if len(data) < _NEIGHBOR_HEADER.size:
        raise ValueError(
            f"truncated NeighborBlock stream: {len(data)} bytes is shorter "
            f"than the {_NEIGHBOR_HEADER.size}-byte header"
        )
    magic, rows, candidates, r_code, id_code = _NEIGHBOR_HEADER.unpack_from(data)
    if magic != _NEIGHBOR_MAGIC:
        raise ValueError("not a NeighborBlock byte stream")
    r_dtype = _dtype_of(ID_DTYPES, r_code, "NeighborBlock", "r id")
    id_dtype = _dtype_of(ID_DTYPES, id_code, "NeighborBlock", "neighbour id")
    expected = (
        _NEIGHBOR_HEADER.size + (r_dtype.itemsize + 8) * rows
        + (id_dtype.itemsize + 8) * candidates
    )
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        raise ValueError(
            f"{kind} NeighborBlock stream: header declares {rows} rows x "
            f"{candidates} candidates ({expected} bytes), got {len(data)} bytes"
        )
    columns = _Columns(data, _NEIGHBOR_HEADER.size)
    r_ids, counts = columns.next(r_dtype, rows), columns.next(np.int64, rows)
    if int(counts.sum()) != candidates or (counts < 0).any():
        raise ValueError(
            f"corrupt NeighborBlock stream: row lengths sum to {int(counts.sum())}, "
            f"header declares {candidates} candidates"
        )
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return NeighborBlock(
        r_ids=r_ids,
        offsets=offsets,
        ids=columns.next(id_dtype, candidates),
        dists=columns.next(np.float64, candidates),
    )
