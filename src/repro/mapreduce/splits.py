"""Helpers to turn datasets into job input splits.

What a split carries across a worker boundary: :func:`dataset_splits` (the
first job's input) hands out :class:`DatasetRows` views — row *slices* of the
datasets' id / coordinate / payload arrays.  Such a split pickles as three
arrays per dataset it touches, and the ``(tag, ObjectRecord)`` pairs a mapper
consumes are built inside the map task that iterates the view (in the worker,
in parallel), never on the master.  :func:`split_records` chunks an already
materialized pair list (chained intermediates, tests) in place.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from typing import Any

import numpy as np

from repro.core.dataset import Dataset

from .serialization import record_count
from .types import InputSplit, ObjectRecord

__all__ = [
    "DatasetRows",
    "dataset_splits",
    "records_from_dataset",
    "split_records",
    "weighted_record_chunks",
]


@dataclass(frozen=True)
class DatasetRows:
    """Sized, re-iterable view of dataset row slices as input pairs.

    ``parts`` rows are ``(tag, ids[a:b], points[a:b], payloads[a:b] | None)``,
    one per dataset the split touches.  Iterating builds the ``(tag,
    ObjectRecord)`` pairs afresh on every pass (a retried map task
    re-iterates); the pickle holds the array slices only.
    """

    parts: tuple[tuple[str, np.ndarray, np.ndarray, np.ndarray | None], ...]

    def __len__(self) -> int:
        return sum(len(ids) for _, ids, _, _ in self.parts)

    def __iter__(self) -> Iterator[tuple[str, ObjectRecord]]:
        for tag, ids, points, payloads in self.parts:
            sizes = repeat(0) if payloads is None else payloads.tolist()
            for object_id, point, payload in zip(ids.tolist(), points, sizes):
                yield tag, ObjectRecord(tag, object_id, point, payload)


def records_from_dataset(dataset: Dataset, tag: str) -> list[tuple[str, ObjectRecord]]:
    """Flatten a dataset into ``(tag, ObjectRecord)`` input pairs."""
    return list(
        DatasetRows(((tag, dataset.ids, dataset.points, dataset.payload_bytes),))
    )


def weighted_record_chunks(
    records: list[tuple[Any, Any]], size: int
) -> Iterator[list[tuple[Any, Any]]]:
    """Chunk ``(key, value)`` pairs into runs of ``size`` *logical* records.

    Columnar block values weigh their row counts, and a block
    straddling a boundary is sliced so every chunk boundary lands exactly
    where the per-record path put it — chunk layout (and therefore task
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


def dataset_splits(
    r: Dataset, s: Dataset, split_size: int
) -> list[InputSplit]:
    """Input splits covering ``R`` then ``S`` — the first job's input.

    Boundaries are those of ``split_records(records_from_dataset(r, "R") +
    records_from_dataset(s, "S"), split_size)``; the records are lazy
    :class:`DatasetRows` views.
    """
    if split_size < 1:
        raise ValueError("split_size must be >= 1")
    splits = []
    for start in range(0, len(r) + len(s), split_size):
        stop = start + split_size
        rows = DatasetRows(
            tuple(
                (
                    tag,
                    data.ids[a:b],
                    data.points[a:b],
                    None if data.payload_bytes is None else data.payload_bytes[a:b],
                )
                for tag, data, a, b in (
                    ("R", r, start, min(stop, len(r))),
                    ("S", s, max(start - len(r), 0), min(stop - len(r), len(s))),
                )
                if a < b
            )
        )
        splits.append(
            InputSplit(split_id=len(splits), records=rows, logical_records=len(rows))
        )
    return splits
