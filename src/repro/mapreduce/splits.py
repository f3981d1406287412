"""Helpers to turn datasets into job input splits.

What a split carries across a worker boundary: :func:`dataset_splits` (the
first job's input) hands out one ``(tag, RecordBlock)`` pair per dataset part
a split touches, whose columns are *views* of the dataset's arrays — the
coordinates and ids too unless the join ships them narrower, in the one
dtype each that :func:`coordinate_dtype` and :func:`id_dtype` pick for R and
S (Forest's integers travel as int16, its ids as int16 at the benchmark's
sizes) — and the split pickles as those row slices; :func:`self_join_splits`
is its self-join form, which hands out each object once, and
:func:`join_splits` the one of the two a join over ``R`` and ``S`` reads.
:func:`cell_dtype` is the width of the cell ids a partitioner of ``M`` cells
writes.
:func:`split_records` chunks an already materialized pair list (chained
intermediates, tests) in place.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.core.dataset import Dataset

from .serialization import record_count
from .types import (
    COORDINATE_DTYPES,
    ID_DTYPES,
    ROLE_BOTH,
    ROLE_R,
    ROLE_S,
    InputSplit,
    RecordBlock,
)

__all__ = [
    "cell_dtype",
    "coordinate_dtype",
    "dataset_splits",
    "id_dtype",
    "join_splits",
    "self_join_splits",
    "split_records",
    "weighted_record_chunks",
]


def weighted_record_chunks(
    records: list[tuple[Any, Any]], size: int
) -> Iterator[list[tuple[Any, Any]]]:
    """Chunk ``(key, value)`` pairs into runs of ``size`` *logical* records.

    Columnar block values weigh their row counts, and a block
    straddling a boundary is sliced so every chunk boundary lands exactly
    where one pair per row would put it — chunk layout (and therefore task
    counts and the cluster timing model) is independent of the encoding.

    A trailing chunk holding only zero-row blocks carries no logical records
    and is dropped: it would otherwise become a split with 0 records,
    inflating task counts and the cluster timing model for free.  Zero-row
    blocks that precede real records still ride along in those records'
    chunks.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    chunk: list[tuple[Any, Any]] = []
    room = size
    for key, value in records:
        weight = record_count(value)
        if weight == 0:  # empty block: carries no records, consumes no room
            chunk.append((key, value))
            continue
        offset = 0
        while weight - offset > room:
            # only a columnar block can outweigh the remaining room: slice it
            chunk.append((key, value.take(np.arange(offset, offset + room))))
            offset += room
            yield chunk
            chunk, room = [], size
        if weight > offset:
            remainder = (
                value
                if offset == 0
                else value.take(np.arange(offset, weight))
            )
            chunk.append((key, remainder))
            room -= weight - offset
        if room == 0:
            yield chunk
            chunk, room = [], size
    # room < size iff at least one logical record landed in this chunk
    if chunk and room < size:
        yield chunk


def split_records(records: list, split_size: int) -> list[InputSplit]:
    """Chunk a record list into input splits of ``split_size`` logical records."""
    if split_size < 1:
        raise ValueError("split_size must be >= 1")
    return [
        InputSplit(split_id=index, records=chunk)
        for index, chunk in enumerate(weighted_record_chunks(records, split_size))
    ]


def coordinate_dtype(*arrays: np.ndarray) -> np.dtype:
    """The narrowest :data:`~repro.mapreduce.types.COORDINATE_DTYPES` dtype
    whose cast of every array equals it by value.

    Value, not bit, equality: ``-0.0`` narrows to an integer 0, whose
    distances to anything equal those of ``-0.0`` once widened back to
    float64, as every consumer does before its arithmetic.  An out-of-range
    or NaN cast differs from its source, so it never passes.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        for dtype in COORDINATE_DTYPES[:-1]:
            if all(np.array_equal(array.astype(dtype), array) for array in arrays):
                return dtype
    return COORDINATE_DTYPES[-1]


def _narrowest_int(lo: int, hi: int) -> np.dtype:
    """The first :data:`~repro.mapreduce.types.ID_DTYPES` dtype holding ``[lo, hi]``."""
    return next(
        dtype for dtype in ID_DTYPES if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max
    )


def id_dtype(*arrays: np.ndarray) -> np.dtype:
    """The narrowest :data:`~repro.mapreduce.types.ID_DTYPES` dtype that holds
    every id of the (integer) arrays by value.  Consumers widen ids back to
    int64 before any arithmetic, sort or sentinel, so none can overflow."""
    filled = [array for array in arrays if array.size]
    return _narrowest_int(
        min((int(array.min()) for array in filled), default=0),
        max((int(array.max()) for array in filled), default=0),
    )


def cell_dtype(num_cells: int) -> np.dtype:
    """The narrowest :data:`~repro.mapreduce.types.ID_DTYPES` dtype that holds
    the cell ids ``0..num_cells - 1``."""
    return _narrowest_int(0, num_cells - 1)


def _dtypes(*datasets: Dataset) -> tuple[np.dtype, np.dtype]:
    """``(coordinates, ids)``: the dtypes a join over ``datasets`` ships."""
    return (
        coordinate_dtype(*(data.points for data in datasets)),
        id_dtype(*(data.ids for data in datasets)),
    )


def dataset_splits(
    r: Dataset, s: Dataset, split_size: int
) -> list[InputSplit]:
    """Input splits covering ``R`` then ``S`` — the first job's input.

    Every ``split_size`` consecutive objects of ``R ∪ S`` form one split
    holding a ``(tag, RecordBlock)`` pair per dataset part it touches.
    """
    if split_size < 1:
        raise ValueError("split_size must be >= 1")
    dtypes = _dtypes(r, s)
    splits = []
    for start in range(0, len(r) + len(s), split_size):
        stop = start + split_size
        records = [
            (tag, _rows(data, dtypes, ROLE_R if tag == "R" else ROLE_S, a, b))
            for tag, data, a, b in (
                ("R", r, start, min(stop, len(r))),
                ("S", s, max(start - len(r), 0), min(stop - len(r), len(s))),
            )
            if a < b
        ]
        splits.append(
            InputSplit(
                split_id=len(splits),
                records=records,
                logical_records=min(stop, len(r) + len(s)) - start,
            )
        )
    return splits


def self_join_splits(dataset: Dataset, split_size: int) -> list[InputSplit]:
    """Input splits covering a self-join's one dataset once, each a
    ``RecordBlock`` of views whose rows are objects of both R and S
    (:data:`~repro.mapreduce.types.ROLE_BOTH`, tag ``"RS"``) — the first
    job's input when ``R`` is ``S``.

    A split ends at every boundary :func:`dataset_splits` would cut in the R
    half (``j * split_size``) or in the S half (``j * split_size - |R|``), so
    each split's rows lie inside one split of ``R ∪ S`` in either role.
    """
    if split_size < 1:
        raise ValueError("split_size must be >= 1")
    size = len(dataset)
    cuts = {
        cut
        for start in range(split_size, 2 * size, split_size)
        for cut in (start, start - size)
        if 0 < cut < size
    }
    bounds = sorted(cuts | {0, size})
    dtypes = _dtypes(dataset)
    return [
        InputSplit(index, [("RS", _rows(dataset, dtypes, ROLE_BOTH, a, b))], logical_records=b - a)
        for index, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]


def join_splits(r: Dataset, s: Dataset, split_size: int) -> list[InputSplit]:
    """The first job's input: each object once, in both roles, when ``r is s``
    (:func:`self_join_splits`), else ``R`` then ``S`` (:func:`dataset_splits`)."""
    return self_join_splits(r, split_size) if r is s else dataset_splits(r, s, split_size)


def _rows(dataset: Dataset, dtypes: tuple, role: int, a: int, b: int) -> RecordBlock:
    """Rows ``[a, b)`` of ``dataset`` as one block of views of its arrays,
    the coordinates and ids cast to ``dtypes`` (:func:`_dtypes`; still views
    when they are float64 and int64)."""
    payload = None if dataset.payload_bytes is None else dataset.payload_bytes[a:b]
    points = dataset.points[a:b].astype(dtypes[0], copy=False)
    ids = dataset.ids[a:b].astype(dtypes[1], copy=False)
    return RecordBlock.of_objects(role, ids, points, payload)
