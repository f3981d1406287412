"""Record types that flow through the simulated cluster.

Object rows exist in one format only, a :class:`ColumnarBlock` — a
struct-of-arrays batch of rows:

* :class:`RecordBlock` — a batch of data objects: what every mapper reads
  (a dataset split is one block per dataset part) and what routing mappers
  emit;
* :class:`NeighborBlock` — a batch of per-``r`` candidate neighbour lists in
  CSR form (what the block joins emit into the shared merge job, and every
  kNN join's final reduce output).

A block is an encoding detail, not a unit of account: shuffle counters and
task statistics always report *logical records* (``len(block)``), and its
estimated wire size is exactly the sum of its rows' wire sizes.  The
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
    "ColumnarBlock",
    "RecordBlock",
    "NeighborBlock",
    "ROLE_R",
    "ROLE_S",
    "ROLE_BOTH",
    "COORDINATE_DTYPES",
    "ID_DTYPES",
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
        # positional form: smaller and faster than the default __dict__
        # pickling; args derive from the field list (dataclass __init__
        # order), so field changes can't scramble blocks crossing the
        # process boundary
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


#: bits of :attr:`RecordBlock.role`: a row is an object of R, of S, or both —
#: a self-join ships each object to its own group once, in both roles
ROLE_R = 1
ROLE_S = 2
ROLE_BOTH = ROLE_R | ROLE_S

#: the dtypes a block may carry its coordinates in, narrowest first (a join
#: picks one: :func:`~repro.mapreduce.splits.coordinate_dtype`); the record
#: codec's header names one by its index here
COORDINATE_DTYPES = tuple(map(np.dtype, (np.int8, np.int16, np.int32, np.float32, np.float64)))
#: the dtypes a block may carry its object ids and cell ids in, narrowest
#: first (a join picks one per column:
#: :func:`~repro.mapreduce.splits.id_dtype`,
#: :func:`~repro.mapreduce.splits.cell_dtype`); the codecs name one by its
#: index here
ID_DTYPES = tuple(map(np.dtype, (np.int8, np.int16, np.int32, np.int64)))


@dataclass
class RecordBlock(ColumnarBlock):
    """A columnar batch of data objects (struct of arrays).

    Parallel 1-d arrays (plus the 2-d point and code matrices) hold one field
    each; row ``i`` across all seven columns is one logical object.  ``role``
    is one byte of :data:`ROLE_R` / :data:`ROLE_S` bits (:attr:`is_r`,
    :attr:`is_s`): a self-join's row holds both, its R copy and own-group S
    copy in one.  The first job's mapper fills in ``partition_ids`` (the
    Voronoi cell), ``pivot_distances`` (``|o, p_o|``) and ``anchor_codes``
    (``|o, a|`` of every anchor of its partitioner, a byte each:
    :func:`~repro.core.geometry.anchor_codes`; ``(n, 0)`` before); the second
    job's pruning rules consume them (Algorithm 3 reads the distance as
    ``k1.dist``).
    ``payloads`` counts non-coordinate bytes carried by each object (e.g. OSM
    descriptions) — it affects shuffle cost only.  Blocks make the hot paths
    array-shaped: mappers route a whole block with one vectorized mask, the
    shuffle moves one value instead of thousands, and reducers rebuild their
    partition blocks with concatenation instead of per-object appends.
    """

    role: np.ndarray  # uint8: ROLE_R | ROLE_S bits
    object_ids: np.ndarray  # an ID_DTYPES dtype
    points: np.ndarray  # a COORDINATE_DTYPES dtype, shape (n, dims)
    payloads: np.ndarray  # int64
    partition_ids: np.ndarray  # an ID_DTYPES dtype
    pivot_distances: np.ndarray  # float64
    anchor_codes: np.ndarray | None = None  # uint8, shape (n, C); None: C = 0

    wire_tag = 1

    def __post_init__(self) -> None:
        if self.anchor_codes is None:
            self.anchor_codes = np.empty((len(self), 0), dtype=np.uint8)

    def __len__(self) -> int:
        return int(self.object_ids.shape[0])

    @property
    def is_r(self) -> np.ndarray:
        """Per row: is it an object of R (its R bit)."""
        return (self.role & ROLE_R) != 0

    @property
    def is_s(self) -> np.ndarray:
        """Per row: is it an object of S (its S bit)."""
        return (self.role & ROLE_S) != 0

    # -- construction -------------------------------------------------------

    @classmethod
    def of_objects(
        cls,
        role: int | np.ndarray,
        ids: np.ndarray,
        points: np.ndarray,
        payloads: np.ndarray | None = None,
    ) -> "RecordBlock":
        """Objects not yet assigned a cell (partition id ``-1``, an int8, and
        pivot distance NaN).  ``role`` is one role for every row or one per
        row; ``payloads=None`` means no payload bytes.  Int64 payloads, ids of
        an :data:`ID_DTYPES` dtype and points of a :data:`COORDINATE_DTYPES`
        dtype are kept as given, so views of a dataset's arrays stay views;
        other ids become int64 and other points float64."""
        rows = len(ids)
        ids, points = np.asarray(ids), np.asarray(points)
        return cls(
            role=np.full(rows, role, dtype=np.uint8),
            object_ids=ids if ids.dtype in ID_DTYPES else ids.astype(np.int64),
            points=points if points.dtype in COORDINATE_DTYPES else points.astype(np.float64),
            payloads=(
                np.zeros(rows, dtype=np.int64)
                if payloads is None
                else np.asarray(payloads, dtype=np.int64)
            ),
            partition_ids=np.full(rows, -1, dtype=np.int8),
            pivot_distances=np.full(rows, np.nan, dtype=np.float64),
        )

    @classmethod
    def gather(cls, values: Iterable["RecordBlock"]) -> "RecordBlock":
        """Concatenate blocks into one, row order following input order."""
        parts = list(values)
        if not parts:
            return cls.of_objects(ROLE_S, np.empty(0, dtype=np.int64), np.empty((0, 0)))
        if len(parts) == 1:
            return parts[0]
        return cls(
            role=np.concatenate([part.role for part in parts]),
            object_ids=np.concatenate([part.object_ids for part in parts]),
            points=np.concatenate([part.points for part in parts]),
            payloads=np.concatenate([part.payloads for part in parts]),
            partition_ids=np.concatenate([part.partition_ids for part in parts]),
            pivot_distances=np.concatenate([part.pivot_distances for part in parts]),
            anchor_codes=np.concatenate([part.anchor_codes for part in parts]),
        )

    # -- row selection ------------------------------------------------------

    def take(self, rows: np.ndarray) -> "RecordBlock":
        """A new block holding the given rows (in the given order)."""
        return RecordBlock(
            role=self.role[rows],
            object_ids=self.object_ids[rows],
            points=self.points[rows],
            payloads=self.payloads[rows],
            partition_ids=self.partition_ids[rows],
            pivot_distances=self.pivot_distances[rows],
            anchor_codes=self.anchor_codes[rows],
        )

    def copies_of(self, role: int) -> "RecordBlock":
        """The rows holding ``role``'s bit, each stamped with that one role:
        what a consumer that ships R and S apart sends, one copy per role of
        a row of both."""
        block = self.take(np.flatnonzero(self.role & role))
        block.role = np.full(len(block), role, dtype=np.uint8)
        return block

    # -- accounting ---------------------------------------------------------

    def estimated_bytes(self) -> int:
        """Sum of the rows' wire sizes, ``1 + w_id + w·d + w_cell + 8 + C +
        payload`` each (role, id, ``d`` coordinates, cell id, pivot distance,
        ``C`` anchor codes, payload; each ``w`` is its column's itemsize) —
        blocks are invisible to byte accounting."""
        dims = self.points.shape[1] if self.points.ndim == 2 else 0
        per_record = (
            1 + self.object_ids.itemsize + dims * self.points.itemsize
            + self.partition_ids.itemsize + 8 + self.anchor_codes.shape[1]
        )
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

    r_ids: np.ndarray  # one per row, an ID_DTYPES dtype (ids' own)
    offsets: np.ndarray  # int64, len(r_ids) + 1, offsets[0] == 0
    ids: np.ndarray  # all rows' neighbour ids back to back, an ID_DTYPES dtype
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
        cls,
        r_ids: np.ndarray,
        counts: np.ndarray,
        ids: np.ndarray,
        dists: np.ndarray,
        id_dtype: np.dtype = np.dtype(np.int64),
    ) -> "NeighborBlock":
        """A block from per-row list lengths and the flat candidate columns,
        both id columns cast to ``id_dtype`` (an :data:`ID_DTYPES` dtype)."""
        offsets = np.zeros(len(r_ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            r_ids=np.asarray(r_ids, dtype=id_dtype),
            offsets=offsets,
            ids=np.asarray(ids, dtype=id_dtype),
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
            np.result_type(*(part.ids for part in parts)),
        )

    def take(self, rows: np.ndarray) -> "NeighborBlock":
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.offsets[rows]
        counts = self.offsets[rows + 1] - starts
        flat = np.repeat(starts, counts) + ranks_within(counts)
        return NeighborBlock.from_counts(
            self.r_ids[rows], counts, self.ids[flat], self.dists[flat], self.ids.dtype
        )

    def with_id_dtype(self, dtype: np.dtype) -> "NeighborBlock":
        """The same lists, both id columns in ``dtype`` (no copy if they are)."""
        return NeighborBlock(
            self.r_ids.astype(dtype, copy=False),
            self.offsets,
            self.ids.astype(dtype, copy=False),
            self.dists,
        )

    def lists(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Expand into per-row ``(r_id, ids, dists)`` (row order preserved)."""
        bounds = self.offsets.tolist()
        for r_id, start, stop in zip(self.r_ids.tolist(), bounds, bounds[1:]):
            yield r_id, self.ids[start:stop], self.dists[start:stop]

    def estimated_bytes(self) -> int:
        """Sum of the rows' ``(ids, dists)`` tuple sizes: a tuple frame plus
        two framed arrays per row, ``w_id + 8`` bytes per candidate (an id of
        ``w_id = ids.itemsize`` bytes and a float64 distance) — blocks are
        invisible to byte accounting."""
        return 12 * len(self) + (self.ids.itemsize + 8) * int(self.ids.shape[0])


@dataclass
class InputSplit:
    """A chunk of job input, the unit handed to one map task.

    ``records`` is usually a plain list of ``(key, value)`` pairs, but any
    sized, re-iterable collection works — the segment-backed DFS hands out
    lazy chunk views that decode from disk.  ``logical_records``, when set
    by the producer, caches the record-weighted size (blocks weigh their
    rows) so schedulers never need to materialize a lazy split just to
    account its input records.
    """

    split_id: int
    records: Any = field(default_factory=list)  # sized, re-iterable (key, value) pairs
    location: int = 0  # node hosting the primary replica (locality hint)
    logical_records: int | None = None  # cached record-weighted size

    def __len__(self) -> int:
        return len(self.records)
