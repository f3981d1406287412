"""Record types that flow through the simulated cluster.

:class:`ObjectRecord` is one object per Python instance, the row format
mappers *consume* (built inside the map task from a columnar split view;
still accepted everywhere for compatibility).  Everything the joins *emit*
in bulk is a :class:`ColumnarBlock` — a struct-of-arrays batch of rows:

* :class:`RecordBlock` — a batch of data objects (what routing mappers emit);
* :class:`NeighborBlock` — a batch of per-``r`` candidate neighbour lists in
  CSR form (what the block joins emit into the shared merge job, and every
  kNN join's final reduce output).

A block is an encoding detail, not a unit of account: shuffle counters and
task statistics always report *logical records* (``len(block)``), and its
estimated wire size is exactly the sum of its rows' sizes in row form.  The
runtime never names a concrete block type — the shuffle, the spill segments,
the DFS chunker and the process boundary dispatch on the small
:class:`ColumnarBlock` protocol alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

__all__ = [
    "ObjectRecord",
    "ColumnarBlock",
    "RecordBlock",
    "NeighborBlock",
    "InputSplit",
    "group_rows_by",
    "ranks_within",
]


def group_rows_by(keys: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(key, row_indices)`` per distinct key, keys ascending.

    Row order within a group follows arrival order (stable sort) — the
    single group-by primitive behind :meth:`RecordBlock.split_by`, the
    kernel partition builders and the block-routing mappers.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    for rows in np.split(order, boundaries):
        yield int(keys[rows[0]]), rows



def ranks_within(lengths: np.ndarray) -> np.ndarray:
    """``0..n-1`` for every run length ``n``, back to back — each element's
    position inside its own run when runs of those lengths are laid end to
    end (CSR rows, per-``r`` candidate windows)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if ends.size else 0) - np.repeat(ends - lengths, lengths)


#: dataset tags, as in the paper's Figure 3/4
TAG_R = "R"
TAG_S = "S"


@dataclass
class ObjectRecord:
    """One data object as serialized between jobs and through the shuffle.

    The first job's mapper fills in ``partition_id`` (the Voronoi cell) and
    ``pivot_distance`` (``|o, p_o|``); the second job's pruning rules consume
    them (Algorithm 3 reads the distance as ``k1.dist``).  ``payload`` counts
    non-coordinate bytes carried by the object (e.g. OSM descriptions) — it
    affects shuffle cost only.
    """

    dataset: str  # "R" or "S"
    object_id: int
    point: np.ndarray
    payload: int = 0
    partition_id: int = -1
    pivot_distance: float = float("nan")

    def estimated_bytes(self) -> int:
        """On-the-wire size: tag + id + coords + pid + dist + payload."""
        return 1 + 8 + int(self.point.nbytes) + 8 + 8 + self.payload

    def __reduce__(self) -> tuple[type[ObjectRecord], tuple[object, ...]]:
        # positional form: smaller and faster than the default __dict__
        # pickling — records dominate the traffic the processes engine
        # moves between scheduler and workers.  Args derive from the field
        # list (dataclass __init__ order), so field changes can't scramble
        # records crossing the process boundary.
        return (
            type(self),
            tuple(getattr(self, spec.name) for spec in fields(self)),
        )

    def is_from_r(self) -> bool:
        """True when the object belongs to the outer dataset ``R``."""
        return self.dataset == TAG_R


class ColumnarBlock:
    """What the runtime asks of a columnar shuffle value (both block types
    are dataclasses of parallel arrays implementing it).

    ``len(block)`` is its logical record count, ``estimated_bytes()`` the sum
    of its rows' wire sizes, ``take(rows)`` a new block of the given rows in
    the given order (how a chunker slices a block at a split boundary),
    ``gather(blocks)`` (a classmethod) their concatenation in row order (how
    consecutive emissions under one key coalesce) and ``wire_tag`` names the
    block's byte codec in :mod:`~repro.mapreduce.serialization` (a segment
    entry's value tag; 0 is taken by pickles).
    """

    wire_tag: int

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # positional form, same motivation as ObjectRecord.__reduce__
        return (
            type(self),
            tuple(getattr(self, spec.name) for spec in fields(self)),
        )

    def split_by(self, keys: np.ndarray) -> Iterator[tuple[int, "ColumnarBlock"]]:
        """Yield ``(key, sub-block)`` per distinct key, keys ascending.

        ``keys`` is one int per row (e.g. a routing decision computed with
        array ops); row order within each sub-block is preserved — this is
        the batching emit primitive mappers use instead of per-record yields.
        """
        for key, rows in group_rows_by(keys):
            yield key, self.take(rows)


@dataclass
class RecordBlock(ColumnarBlock):
    """A columnar batch of :class:`ObjectRecord` rows (struct of arrays).

    Parallel 1-d arrays (plus the 2-d point matrix) hold one field each; row
    ``i`` across all six columns is one logical object.  Blocks make the hot
    paths array-shaped: mappers route a whole block with one vectorized mask,
    the shuffle moves one value instead of thousands, and reducers rebuild
    their partition blocks with concatenation instead of per-record appends.
    """

    is_r: np.ndarray  # bool: origin flag, True for dataset R
    object_ids: np.ndarray  # int64
    points: np.ndarray  # float64, shape (n, dims)
    payloads: np.ndarray  # int64
    partition_ids: np.ndarray  # int64
    pivot_distances: np.ndarray  # float64

    wire_tag = 1

    def __len__(self) -> int:
        return int(self.object_ids.shape[0])

    # -- construction -------------------------------------------------------

    @classmethod
    def from_records(cls, records: list[ObjectRecord]) -> "RecordBlock":
        """Columnarize a list of records (row order preserved)."""
        n = len(records)
        dims = records[0].point.shape[0] if n else 0
        points = np.empty((n, dims), dtype=np.float64)
        for row, record in enumerate(records):
            points[row] = record.point
        return cls(
            is_r=np.fromiter(
                (record.is_from_r() for record in records), dtype=bool, count=n
            ),
            object_ids=np.fromiter(
                (record.object_id for record in records), dtype=np.int64, count=n
            ),
            points=points,
            payloads=np.fromiter(
                (record.payload for record in records), dtype=np.int64, count=n
            ),
            partition_ids=np.fromiter(
                (record.partition_id for record in records), dtype=np.int64, count=n
            ),
            pivot_distances=np.fromiter(
                (record.pivot_distance for record in records), dtype=np.float64, count=n
            ),
        )

    @classmethod
    def gather(cls, values: Iterable["RecordBlock | ObjectRecord"]) -> "RecordBlock":
        """Concatenate a mixed stream of records and blocks into one block.

        Row order follows the input order, so reducers that gather their
        ``values`` list see objects in the same sequence the per-record path
        delivered them.
        """
        parts: list[RecordBlock] = []
        pending: list[ObjectRecord] = []
        for value in values:
            if isinstance(value, RecordBlock):
                if pending:
                    parts.append(cls.from_records(pending))
                    pending = []
                parts.append(value)
            else:
                pending.append(value)
        if pending:
            parts.append(cls.from_records(pending))
        if not parts:
            return cls.from_records([])
        if len(parts) == 1:
            return parts[0]
        return cls(
            is_r=np.concatenate([part.is_r for part in parts]),
            object_ids=np.concatenate([part.object_ids for part in parts]),
            points=np.concatenate([part.points for part in parts]),
            payloads=np.concatenate([part.payloads for part in parts]),
            partition_ids=np.concatenate([part.partition_ids for part in parts]),
            pivot_distances=np.concatenate([part.pivot_distances for part in parts]),
        )

    # -- row selection ------------------------------------------------------

    def take(self, rows: np.ndarray) -> "RecordBlock":
        """A new block holding the given rows (in the given order)."""
        return RecordBlock(
            is_r=self.is_r[rows],
            object_ids=self.object_ids[rows],
            points=self.points[rows],
            payloads=self.payloads[rows],
            partition_ids=self.partition_ids[rows],
            pivot_distances=self.pivot_distances[rows],
        )

    # -- interop and accounting ---------------------------------------------

    def to_records(self) -> Iterator[ObjectRecord]:
        """Expand back into per-object records (row order preserved)."""
        for row in range(len(self)):
            yield ObjectRecord(
                dataset=TAG_R if self.is_r[row] else TAG_S,
                object_id=int(self.object_ids[row]),
                point=self.points[row],
                payload=int(self.payloads[row]),
                partition_id=int(self.partition_ids[row]),
                pivot_distance=float(self.pivot_distances[row]),
            )

    def estimated_bytes(self) -> int:
        """Sum of the per-record wire sizes — blocks are invisible to byte
        accounting, matching :meth:`ObjectRecord.estimated_bytes` row by row."""
        dims = self.points.shape[1] if self.points.ndim == 2 else 0
        per_record = 1 + 8 + dims * 8 + 8 + 8
        return len(self) * per_record + int(self.payloads.sum())


@dataclass
class NeighborBlock(ColumnarBlock):
    """A columnar batch of candidate neighbour lists, one row per ``r`` (CSR).

    Row ``i`` is the list ``(ids[offsets[i]:offsets[i + 1]],
    dists[offsets[i]:offsets[i + 1]])`` of object ``r_ids[i]`` — the value a
    block join used to emit as one ``(ids, dists)`` tuple per ``r``.  An
    ``r`` may appear in several rows (one per candidate source); the merge
    job folds them.
    """

    r_ids: np.ndarray  # int64, one per row
    offsets: np.ndarray  # int64, len(r_ids) + 1, offsets[0] == 0
    ids: np.ndarray  # int64, all rows' neighbour ids back to back
    dists: np.ndarray  # float64, aligned with ids

    wire_tag = 2

    def __len__(self) -> int:
        return int(self.r_ids.shape[0])

    @classmethod
    def from_lists(
        cls, lists: Iterable[tuple[int, np.ndarray, np.ndarray]]
    ) -> "NeighborBlock":
        """Columnarize ``(r_id, ids, dists)`` lists (row order preserved) —
        the inverse of :meth:`lists`."""
        lists = list(lists)
        return cls.from_counts(
            [r_id for r_id, _, _ in lists],
            [len(ids) for _, ids, _ in lists],
            np.concatenate([ids for _, ids, _ in lists]) if lists else (),
            np.concatenate([dists for _, _, dists in lists]) if lists else (),
        )

    @classmethod
    def from_counts(
        cls, r_ids: np.ndarray, counts: np.ndarray, ids: np.ndarray, dists: np.ndarray
    ) -> "NeighborBlock":
        """A block from per-row list lengths and the flat candidate columns."""
        offsets = np.zeros(len(r_ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            r_ids=np.asarray(r_ids, dtype=np.int64),
            offsets=offsets,
            ids=np.asarray(ids, dtype=np.int64),
            dists=np.asarray(dists, dtype=np.float64),
        )

    @classmethod
    def gather(cls, values: Iterable["NeighborBlock"]) -> "NeighborBlock":
        parts = list(values)
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.from_counts((), (), (), ())
        return cls.from_counts(
            np.concatenate([part.r_ids for part in parts]),
            np.concatenate([np.diff(part.offsets) for part in parts]),
            np.concatenate([part.ids for part in parts]),
            np.concatenate([part.dists for part in parts]),
        )

    def take(self, rows: np.ndarray) -> "NeighborBlock":
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.offsets[rows]
        counts = self.offsets[rows + 1] - starts
        flat = np.repeat(starts, counts) + ranks_within(counts)
        return NeighborBlock.from_counts(
            self.r_ids[rows], counts, self.ids[flat], self.dists[flat]
        )

    def lists(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Expand into per-row ``(r_id, ids, dists)`` (row order preserved)."""
        bounds = self.offsets.tolist()
        for r_id, start, stop in zip(self.r_ids.tolist(), bounds, bounds[1:]):
            yield r_id, self.ids[start:stop], self.dists[start:stop]

    def estimated_bytes(self) -> int:
        """Sum of the rows' ``(ids, dists)`` tuple sizes: a tuple frame plus
        two framed 8-byte-per-candidate arrays per row — blocks are invisible
        to byte accounting."""
        return 12 * len(self) + 16 * int(self.ids.shape[0])


@dataclass
class InputSplit:
    """A chunk of job input, the unit handed to one map task.

    ``records`` is usually a plain list of ``(key, value)`` pairs, but any
    sized, re-iterable collection works — ``dataset_splits`` hands out
    columnar row-slice views that build their records only when a map task
    iterates them, the segment-backed DFS lazy chunk views that decode from
    disk.  ``logical_records``, when set by the producer, caches the
    record-weighted size (blocks weigh their rows) so schedulers never need
    to materialize a lazy split just to account its input records.
    """

    split_id: int
    records: Any = field(default_factory=list)  # sized, re-iterable (key, value) pairs
    location: int = 0  # node hosting the primary replica (locality hint)
    logical_records: int | None = None  # cached record-weighted size

    def __len__(self) -> int:
        return len(self.records)
