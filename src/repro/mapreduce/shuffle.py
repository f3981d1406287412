"""Pluggable shuffle storage: in-memory buckets or disk-spilled segment files.

The scheduler in :mod:`repro.mapreduce.runtime` delegates the whole
map-output → reduce-input path to a :class:`ShuffleStore`:

* :class:`InMemoryShuffleStore` (``"memory"``, the default) — the
  bit-exactness oracle: map tasks return their emissions as values, the
  scheduler buckets them into per-reducer dicts, and each reduce task
  receives fully materialized, key-sorted groups.
* :class:`SpillShuffleStore` (``"spill"``) — the out-of-core path.  Map tasks
  partition their own output and write it to on-disk *segment files* (sorted
  runs, one per reducer per flush), returning only a :class:`MapManifest` of
  segment descriptors to the scheduler; reduce tasks stream a k-way external
  merge over their segments, ordered by
  :func:`~repro.mapreduce.serialization.shuffle_sort_key`, and feed the
  reducer one lazily-decoded group at a time.

On both paths the unit that crosses a boundary — process or disk — is **one
block per key**, not one per emission: :func:`block_runs` finds, per key, the
runs of consecutive same-type :class:`~repro.mapreduce.types.ColumnarBlock`
values in that key's arrival sequence, and each run is merged with the block
type's ``gather`` — worker-side before a map task returns its emissions
(:func:`coalesce_emissions`), and on the sorted buffer inside each flush of
:class:`SpillMapWriter` (never before ``add``, so flush boundaries, segment
and merge-pass counts do not depend on it).  Mappers that emit one block per
key to begin with (PGBJ's routing mapper: one per group per task) pass through
as runs of one; a block join's candidate lists travel as one ``NeighborBlock``
per merge partition; rows, their order and all accounting are unchanged.

The hard contract, enforced by tests: both backends produce **bit-identical**
job outputs, counters, and shuffle records/bytes accounting on every engine.
Three properties make that hold:

* records are merged by ``(sort_key(key), map_task_index, emission_seq)`` —
  exactly the (group order, arrival order) the in-memory dict path produces;
* grouping is by sort-key equality, which coincides with dict-key equality
  for every supported key type (``1``, ``1.0``, ``True`` and ``np.int64(1)``
  all land in one group, as one dict slot holds them all);
* shuffle records/bytes are accumulated per emission *at write time* with the
  same :func:`~repro.mapreduce.serialization.estimate_bytes` formula the
  in-memory path uses, and carried in the segment headers — the scheduler
  accounts from headers without rehydrating a single record.

Values travel in their block type's columnar wire format when they are
:class:`~repro.mapreduce.types.ColumnarBlock` batches (``RecordBlock`` object
rows, ``NeighborBlock`` candidate lists — the entry's value tag is the
block's ``wire_tag``) and as pickles otherwise; keys are always pickled (they
are small — ints, strings, tuples).  This module never names a concrete block
type: counting, coalescing and encoding all go through the protocol.
"""

from __future__ import annotations

import heapq
import pickle
import shutil
import struct
import tempfile
import threading
import zlib
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .serialization import (
    decode_block,
    encode_block,
    estimate_bytes,
    record_count,
    shuffle_sort_key,
)
from .types import ColumnarBlock

__all__ = [
    "ShuffleStore",
    "InMemoryShuffleStore",
    "SpillShuffleStore",
    "Segment",
    "SegmentIntegrityError",
    "SegmentLost",
    "MapManifest",
    "ReduceInput",
    "SpillSpec",
    "SpillMapWriter",
    "block_runs",
    "coalesce_emissions",
    "OwnedScratchDir",
    "write_segment",
    "iter_segment",
    "merged_segment_groups",
    "planned_merge_passes",
    "get_shuffle_store",
    "available_shuffle_backends",
    "DEFAULT_SHUFFLE",
    "DEFAULT_MERGE_FAN_IN",
]

#: the shuffle backend every runtime falls back to
DEFAULT_SHUFFLE = "memory"

# -- segment wire format -------------------------------------------------------
#
# A segment file is one sorted run of (key, value) entries destined for one
# reducer:
#
#   header:  magic "SSEG" | version u16 | codec u8 | entry_count u32
#            | record_count u64 | accounted_bytes u64
#   entry:   task u32 | seq u32 | key_len u32 | value_len u32 | value_tag u8
#            | crc32 u32 | key pickle | value payload
#
# ``value_tag`` selects the payload encoding: 0 is a pickle, anything else the
# ``wire_tag`` of a columnar block type and its wire format.  The header's
# ``codec`` byte is always 0 (payloads stored as encoded); a file carrying
# any other id — 1 was zlib, now retired — is refused.  The
# record_count/accounted_bytes totals are the segment's exact contribution
# to the job's shuffle accounting — readable without touching any entry.
# Each entry carries its own (map task, emission seq) provenance, so a run
# produced by an *intermediate merge* of many map-task runs (the
# bounded-fan-in external merge) stays totally ordered by the same key the
# original runs were.
#
# Version 3 added the per-entry ``crc32`` — zlib.crc32 over the entry body
# (key pickle + on-disk value payload) — so a reader detects bit rot and
# chaos-injected corruption *before* handing garbage to pickle or the block
# decoder.  A mismatch raises :class:`SegmentIntegrityError`; the reduce-side
# merge escalates it (and a vanished file) to :class:`SegmentLost`, which the
# runtime answers by re-running the producing map task.

_SEGMENT_MAGIC = b"SSEG"
_SEGMENT_VERSION = 3
_SEGMENT_CODEC = 0
_SEGMENT_HEADER = struct.Struct("<4sHBIQQ")
_ENTRY_HEADER = struct.Struct("<IIIIBI")
_VALUE_PICKLE = 0


class SegmentIntegrityError(ValueError):
    """A segment entry's stored CRC32 does not match its bytes on disk."""

    def __init__(self, path: str, entry: int, expected: int, actual: int) -> None:
        super().__init__(
            f"segment file {path}, entry {entry}: CRC mismatch "
            f"(stored {expected:#010x}, computed {actual:#010x}) — "
            "corrupt entry body"
        )
        self.path = str(path)
        self.entry = entry


class SegmentLost(RuntimeError):
    """A reduce task could not read one of its input segments.

    Raised by the reduce-side merge when a segment file has vanished or
    fails validation (truncation, CRC mismatch, undecodable payload).  It
    carries the producing map task's index so the scheduler can re-run just
    that task and patch the manifests; ``task_index == -1`` means the lost
    file was an intermediate merge run (or of unknown provenance) and only a
    plain reduce retry can regenerate it.
    """

    def __init__(
        self,
        message: str,
        path: str = "",
        task_index: int = -1,
        reducer: int = -1,
        checksum: bool = False,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.task_index = task_index
        self.reducer = reducer
        self.checksum = checksum

    def __reduce__(self):  # exceptions with extra args need explicit pickling
        return (
            _rebuild_segment_lost,
            (str(self), self.path, self.task_index, self.reducer, self.checksum),
        )


def _rebuild_segment_lost(message, path, task_index, reducer, checksum):
    return SegmentLost(
        message, path=path, task_index=task_index, reducer=reducer, checksum=checksum
    )


#: maximum runs one k-way merge reads at once — more runs than this are
#: first combined by intermediate merge passes (Hadoop's io.sort.factor);
#: an unbounded fan-in would hold one open file per run and exhaust the
#: process file-descriptor limit under tight memory budgets
DEFAULT_MERGE_FAN_IN = 64


@dataclass(frozen=True)
class Segment:
    """Descriptor of one on-disk sorted run (what a manifest carries)."""

    path: str
    reducer: int
    entries: int  # (key, value) pairs in the file
    records: int  # logical records (blocks weigh their rows)
    accounted_bytes: int  # exact shuffle-bytes contribution (estimate_bytes)
    file_bytes: int  # actual bytes on disk (spill counter)
    #: index of the producing map task, the recovery handle: when this
    #: segment is lost the scheduler re-runs exactly that task.  -1 marks
    #: runs with no single producer (intermediate merge runs, checkpoints).
    task_index: int = -1


@dataclass(frozen=True)
class MapManifest:
    """What a spilling map task returns instead of its emissions."""

    segments: tuple[Segment, ...]
    output_records: int  # logical records emitted (TaskStat.output_records)
    entries: int  # emissions written (key-value pairs)


@dataclass(frozen=True)
class ReduceInput:
    """One reduce task's input: materialized groups *or* segments to merge."""

    reducer: int
    groups: list[tuple[Any, list[Any]]] | None = None  # in-memory backend
    segments: tuple[Segment, ...] | None = None  # spill backend
    merge_fan_in: int = DEFAULT_MERGE_FAN_IN  # max runs per k-way merge


def _truncated(path: str | Path, needed: int, got: int, what: str) -> ValueError:
    return ValueError(
        f"truncated segment file {path}: expected {needed} more bytes "
        f"for {what}, got {got}"
    )


def _encode_value(value: Any) -> tuple[int, bytes]:
    if isinstance(value, ColumnarBlock):
        return value.wire_tag, encode_block(value)
    return _VALUE_PICKLE, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def write_segment(
    path: str | Path,
    reducer: int,
    entries,
    task_index: int = -1,
) -> Segment:
    """Write one sorted run to ``path``, streaming, and return its descriptor.

    ``entries`` rows are ``(task, seq, key, value, records, accounted_bytes)``
    — any iterable, already sorted by ``(shuffle_sort_key(key), task, seq)``.
    Rows are encoded and written one at a time (never a whole-segment buffer:
    spilling is where memory is scarce by definition), with the header
    totals patched in afterwards so accounting never needs the file re-read.
    Each entry's body is protected by a CRC32 stored in its entry header.
    ``task_index`` stamps the descriptor with the producing map task (the
    recovery handle); leave it at -1 for runs without a single producer.
    """
    path = Path(path)
    entry_count = 0
    records = 0
    accounted = 0
    with open(path, "wb") as stream:
        stream.write(
            _SEGMENT_HEADER.pack(_SEGMENT_MAGIC, _SEGMENT_VERSION, _SEGMENT_CODEC, 0, 0, 0)
        )
        for task, seq, key, value, row_records, row_accounted in entries:
            key_blob = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
            tag, value_blob = _encode_value(value)
            crc = zlib.crc32(value_blob, zlib.crc32(key_blob))
            stream.write(
                _ENTRY_HEADER.pack(
                    task, seq, len(key_blob), len(value_blob), tag, crc
                )
            )
            stream.write(key_blob)
            stream.write(value_blob)
            entry_count += 1
            records += row_records
            accounted += row_accounted
        file_bytes = stream.tell()
        stream.seek(0)
        stream.write(
            _SEGMENT_HEADER.pack(
                _SEGMENT_MAGIC,
                _SEGMENT_VERSION,
                _SEGMENT_CODEC,
                entry_count,
                records,
                accounted,
            )
        )
    return Segment(
        path=str(path),
        reducer=reducer,
        entries=entry_count,
        records=records,
        accounted_bytes=accounted,
        file_bytes=file_bytes,
        task_index=task_index,
    )


def _parse_header(path: str | Path, header: bytes) -> tuple[int, int, int]:
    """``(entries, records, accounted_bytes)`` from the header bytes."""
    if len(header) < _SEGMENT_HEADER.size:
        raise _truncated(path, _SEGMENT_HEADER.size, len(header), "the header")
    magic, version, codec_id, entries, records, accounted = (
        _SEGMENT_HEADER.unpack(header)
    )
    if magic != _SEGMENT_MAGIC:
        raise ValueError(f"{path} is not a shuffle segment file (bad magic)")
    if version != _SEGMENT_VERSION:
        raise ValueError(
            f"segment file {path} has version {version}, expected {_SEGMENT_VERSION}"
        )
    if codec_id != _SEGMENT_CODEC:
        raise ValueError(f"segment file {path} uses unknown codec id {codec_id}; known: none")
    return entries, records, accounted


def read_segment_header(path: str | Path) -> tuple[int, int, int]:
    """``(entries, records, accounted_bytes)`` from the header."""
    with open(path, "rb") as stream:
        return _parse_header(path, stream.read(_SEGMENT_HEADER.size))


def iter_segment(path: str | Path) -> Iterator[tuple[int, int, Any, Any]]:
    """Yield ``(task, seq, key, value)`` entries of a segment file, lazily.

    Validates as it goes: a truncated file raises a ``ValueError`` naming the
    path and the expected-vs-actual byte counts; trailing bytes after the
    declared entries (e.g. two segments concatenated) raise too.  Each
    entry's CRC32 is checked against its body before anything is decoded
    (a mismatch raises :class:`SegmentIntegrityError`).  Value payload decode
    errors are re-raised as ``ValueError`` with the segment path and entry
    index attached.
    """
    with open(path, "rb") as stream:
        declared, _, _ = _parse_header(path, stream.read(_SEGMENT_HEADER.size))
        for index in range(declared):
            header = stream.read(_ENTRY_HEADER.size)
            if len(header) < _ENTRY_HEADER.size:
                raise _truncated(
                    path, _ENTRY_HEADER.size, len(header),
                    f"the header of entry {index}/{declared}",
                )
            task, seq, key_len, value_len, tag, crc = _ENTRY_HEADER.unpack(header)
            body = stream.read(key_len + value_len)
            if len(body) < key_len + value_len:
                raise _truncated(
                    path, key_len + value_len, len(body),
                    f"entry {index}/{declared}",
                )
            actual = zlib.crc32(body)
            if actual != crc:
                raise SegmentIntegrityError(str(path), index, crc, actual)
            key = pickle.loads(body[:key_len])
            payload = body[key_len:]
            if tag == _VALUE_PICKLE:
                value = pickle.loads(payload)
            else:
                try:
                    value = decode_block(tag, payload)
                except ValueError as error:
                    raise ValueError(
                        f"segment file {path}, entry {index}: {error}"
                    ) from error
            yield task, seq, key, value
        trailing = stream.read(1)
        if trailing:
            extra = len(trailing) + _remaining(stream)
            raise ValueError(
                f"segment file {path} has {extra} trailing bytes after its "
                f"{declared} declared entries — concatenated or corrupt stream"
            )


def _remaining(stream) -> int:
    position = stream.tell()
    stream.seek(0, 2)
    return stream.tell() - position


# -- per-key block coalescing (runs inside engine workers) ----------------------


def block_runs(
    pairs: Iterable[tuple[Any, Any]], key: Callable[[Any], Any] = lambda k: k
) -> list[list[int]]:
    """Group emission positions into what crosses a boundary as one value.

    Per key, every maximal run of consecutive columnar blocks of one type *in
    that key's arrival sequence* is one group (positions ascending); any
    other value is a group of its own and closes the key's run.  Groups are
    ordered by first position.  A run also closes when the key's wire size
    changes (``True`` and ``1`` share a dict slot, not a size, and shuffle
    bytes charge the key once per row), so a merged group accounted under its
    first key equals the sum of its members.  ``key`` maps an emission key to its
    hashable grouping identity (the spill path passes ``shuffle_sort_key``)
    and is evaluated only where a block is involved: block-free output pays
    one ``isinstance`` per value.
    """
    groups: list[list[int]] = []
    open_run: dict[Any, tuple[tuple, list[int]]] = {}
    for position, (raw_key, value) in enumerate(pairs):
        if isinstance(value, ColumnarBlock):
            identity, shape = key(raw_key), (estimate_bytes(raw_key), type(value))
            opened = open_run.get(identity)
            if opened is None or opened[0] != shape:
                opened = open_run[identity] = (shape, [])
                groups.append(opened[1])
            opened[1].append(position)
        else:
            if open_run:
                open_run.pop(key(raw_key), None)
            groups.append([position])
    return groups


def coalesce_emissions(emissions: list[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
    """One map task's emissions with each :func:`block_runs` group merged into
    one block under its first key (a group of one keeps the same pair)."""
    return [
        emissions[run[0]]
        if len(run) == 1
        else (emissions[run[0]][0], _gather(emissions[i][1] for i in run))
        for run in block_runs(emissions)
    ]


def _gather(blocks: Iterable[ColumnarBlock]) -> ColumnarBlock:
    """One :func:`block_runs` group (same-type blocks) as a single block."""
    blocks = list(blocks)
    return type(blocks[0]).gather(blocks)


# -- map-side spill writer (runs inside engine workers) ------------------------


@dataclass(frozen=True)
class SpillSpec:
    """Scheduler → worker instructions for one map task's spilling.

    Picklable and tiny: the directory to write under, the memory budget, and
    the task's identity (index orders the reduce-side merge; id + attempt
    uniquify file names so retried attempts never collide).
    """

    directory: str
    budget: int | None  # buffered estimate_bytes before a flush; None = one run
    task_index: int
    task_id: str


class SpillMapWriter:
    """Partitions, accounts, sorts and spills one map task's emissions.

    Emissions are buffered per reducer; whenever the buffered (estimated)
    bytes exceed the budget, every non-empty buffer is sorted by
    ``(shuffle_sort_key, seq)`` and written as one segment file — a sorted
    run, exactly like Hadoop's map-side spills.  ``finish`` flushes the tail
    and returns the :class:`MapManifest`.  Budgets are measured with the
    deterministic ``estimate_bytes`` sizes, so run boundaries (and therefore
    the spill counters) are identical on every engine.  The check follows
    each ``add``, so a block larger than the budget is a run of its own (with
    whatever was buffered before it): a task that emits one block per key
    writes at most one segment per key however small the budget.
    """

    def __init__(
        self,
        spec: SpillSpec,
        attempt: int,
        partitioner,
        num_reducers: int,
    ) -> None:
        self._spec = spec
        self._attempt = attempt
        self._partitioner = partitioner
        self._num_reducers = num_reducers
        self._buffers: list[list] = [[] for _ in range(num_reducers)]
        self._buffered_bytes = 0
        self._seq = 0
        self._runs = 0
        self._segments: list[Segment] = []
        self._output_records = 0
        self._blocks_buffered = False  # block-free flushes skip coalescing

    def add(self, key: Any, value: Any) -> None:
        reducer = self._partitioner.assign(key, self._num_reducers)
        if not 0 <= reducer < self._num_reducers:
            raise ValueError(
                f"partitioner produced reducer {reducer} "
                f"outside [0, {self._num_reducers})"
            )
        records = record_count(value)
        accounted = estimate_bytes(key) * records + estimate_bytes(value)
        self._buffers[reducer].append((self._seq, key, value, records, accounted))
        self._seq += 1
        self._output_records += records
        self._buffered_bytes += accounted
        self._blocks_buffered = self._blocks_buffered or isinstance(value, ColumnarBlock)
        if self._spec.budget is not None and self._buffered_bytes > self._spec.budget:
            self._flush()

    def _flush(self) -> None:
        task = self._spec.task_index
        for reducer, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            buffer.sort(key=lambda row: (shuffle_sort_key(row[1]), row[0]))
            if self._blocks_buffered:
                # one entry per run of a key's blocks: it keeps the run's
                # first seq (no other entry of the key lies in between) and
                # the summed accounting, so merge order and every shuffle
                # counter stay put
                buffer = [
                    buffer[run[0]]
                    if len(run) == 1
                    else (
                        *buffer[run[0]][:2],
                        _gather(buffer[i][2] for i in run),
                        sum(buffer[i][3] for i in run),
                        sum(buffer[i][4] for i in run),
                    )
                    for run in block_runs(
                        ((row[1], row[2]) for row in buffer), shuffle_sort_key
                    )
                ]
            path = Path(self._spec.directory) / (
                f"{self._spec.task_id}-a{self._attempt:02d}"
                f"-r{reducer:05d}-run{self._runs:04d}.seg"
            )
            self._segments.append(
                write_segment(
                    path,
                    reducer,
                    ((task, *row) for row in buffer),
                    task_index=task,
                )
            )
            self._buffers[reducer] = []
        self._buffered_bytes = 0
        self._blocks_buffered = False
        self._runs += 1

    def finish(self) -> MapManifest:
        if any(self._buffers):
            self._flush()
        return MapManifest(
            segments=tuple(self._segments),
            output_records=self._output_records,
            entries=self._seq,
        )


# -- reduce-side streaming merge (runs inside engine workers) ------------------

_DONE = object()


def _entry_stream(segment: Segment) -> Iterator[tuple]:
    """Merge-ordered view of one segment: ``(sort_key, task, seq, key, value)``.

    The leading triple is unique across a job (task index and emission seq
    disambiguate equal sort keys), so ``heapq.merge`` never compares the raw
    keys or values themselves.

    A vanished or unreadable file surfaces as :class:`SegmentLost` carrying
    the descriptor's producing-task index — the signal the scheduler's
    map-task recovery path keys on.  Direct ``iter_segment`` users keep the
    plain ``ValueError`` behavior.
    """
    try:
        for task, seq, key, value in iter_segment(segment.path):
            yield shuffle_sort_key(key), task, seq, key, value
    except FileNotFoundError as error:
        raise SegmentLost(
            f"segment file {segment.path} has vanished "
            f"(produced by map task {segment.task_index}): {error}",
            path=segment.path,
            task_index=segment.task_index,
            reducer=segment.reducer,
        ) from error
    except SegmentIntegrityError as error:
        raise SegmentLost(
            f"segment checksum failure "
            f"(produced by map task {segment.task_index}): {error}",
            path=segment.path,
            task_index=segment.task_index,
            reducer=segment.reducer,
            checksum=True,
        ) from error
    except ValueError as error:
        raise SegmentLost(
            f"segment unreadable "
            f"(produced by map task {segment.task_index}): {error}",
            path=segment.path,
            task_index=segment.task_index,
            reducer=segment.reducer,
        ) from error


def _merge_runs(
    runs: list[Segment], fan_in: int, scratch_dir: Path, scratch_prefix: str
) -> tuple[list[Segment], int]:
    """Intermediate passes: combine runs until at most ``fan_in`` remain.

    Each pass streams ``fan_in`` runs through one k-way merge into a new
    on-disk run (entries keep their per-row task/seq provenance, so order is
    preserved exactly), holding ``fan_in`` open files at a time regardless of
    how many runs a tight memory budget produced.  Returns the surviving
    runs and the number of intermediate merges performed.
    """
    passes = 0
    runs = list(runs)
    while len(runs) > fan_in:
        batch, runs = runs[:fan_in], runs[fan_in:]
        merged = heapq.merge(*(_entry_stream(segment) for segment in batch))
        path = scratch_dir / f"{scratch_prefix}-merge{passes:04d}.seg"
        runs.append(
            write_segment(
                path,
                batch[0].reducer,
                (
                    (task, seq, key, value, record_count(value), 0)
                    for _, task, seq, key, value in merged
                ),
            )
        )
        passes += 1
    return runs, passes


def planned_merge_passes(num_runs: int, fan_in: int = DEFAULT_MERGE_FAN_IN) -> int:
    """K-way merges a reducer will perform over ``num_runs`` sorted runs.

    Mirrors :func:`merged_segment_groups` exactly (each intermediate pass
    replaces ``fan_in`` runs with one, plus the final streaming merge), so
    the scheduler can account ``merge_passes`` without running anything.
    """
    if num_runs == 0:
        return 0
    passes = 0
    while num_runs > fan_in:
        num_runs -= fan_in - 1
        passes += 1
    return passes + 1


def merged_segment_groups(
    segments: tuple[Segment, ...] | list[Segment],
    fan_in: int = DEFAULT_MERGE_FAN_IN,
    scratch_prefix: str = "reduce",
) -> Iterator[tuple[Any, Iterator[Any]]]:
    """Bounded-fan-in external merge: yield ``(key, values)`` groups, sorted.

    Entries stream from disk in ``(sort_key, map task, emission seq)`` order —
    the exact group order and within-group arrival order the in-memory
    backend's ``dict`` + ``sorted`` path produces.  More than ``fan_in`` runs
    are first combined by intermediate merge passes (written next to the
    input segments, ``scratch_prefix``-named), so at most ``fan_in`` files
    are open at once.  Each group's ``values`` is a one-shot iterator
    decoding lazily; values the reducer does not consume are drained before
    the next group starts, so reducers may stop early.
    """
    if fan_in < 2:
        raise ValueError("fan_in must be >= 2")
    if not segments:
        return
    runs, _ = _merge_runs(
        list(segments), fan_in, Path(segments[0].path).parent, scratch_prefix
    )
    merged = heapq.merge(*(_entry_stream(segment) for segment in runs))
    state = [next(merged, _DONE)]

    def group_values(sort_key) -> Iterator[Any]:
        while state[0] is not _DONE and state[0][0] == sort_key:
            value = state[0][4]
            state[0] = next(merged, _DONE)
            yield value

    while state[0] is not _DONE:
        sort_key, _, _, key, _ = state[0]
        values = group_values(sort_key)
        yield key, values
        for _ in values:  # drain whatever the reducer left unconsumed
            pass


# -- owned scratch directories -------------------------------------------------


class OwnedScratchDir:
    """A lazily-created temp directory the owner alone creates and removes.

    The one implementation of the spill-space lifecycle shared by the spill
    shuffle store and the segment-backed DFS: ``ensure`` makes a fresh
    ``mkdtemp`` under ``parent`` (or the system temp dir) on first use, and
    ``close`` removes everything under it, idempotently.  Always a private
    ``mkdtemp`` — never the caller's directory itself — so removal can be
    unconditional.
    """

    def __init__(self, prefix: str, parent: str | None = None) -> None:
        self._prefix = prefix
        self._parent = parent
        self._root: str | None = None

    def ensure(self) -> str:
        """The directory path, creating it on first call."""
        if self._root is None:
            if self._parent is not None:
                Path(self._parent).mkdir(parents=True, exist_ok=True)
            self._root = tempfile.mkdtemp(prefix=self._prefix, dir=self._parent)
        return self._root

    def close(self) -> None:
        """Remove the directory and its contents; safe to call repeatedly."""
        root, self._root = self._root, None
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)


# -- the store layer -----------------------------------------------------------


class ShuffleStore(ABC):
    """Strategy for moving map output to reduce input.

    The scheduler drives it in four steps per job: :meth:`begin_job` (once,
    before the map phase of a job with reducers — it returns an opaque *job
    session* the scheduler holds for the rest of that job), then
    :meth:`map_spill_spec` (per map task, handed the session — ``None`` means
    "return emissions inline"), then :meth:`plan_reduce` over the completed
    map attempts, which both fills the job's shuffle accounting (from
    emissions or segment headers) and returns one :class:`ReduceInput` per
    non-empty reducer.  :meth:`close` releases whatever the backend holds
    (spill directories) and is idempotent.

    Per-job state lives in the session value, never on the store: one store
    serves every job of a plan, and a caller may hand one store to several
    runtimes (``LocalRuntime(shuffle=store)``) whose jobs run at once on
    different threads.

    ``map_results`` rows are duck-typed: they expose ``.emissions`` (a list
    of ``(key, value)`` pairs) and ``.manifest`` (a :class:`MapManifest` or
    ``None``) — the runtime's attempt bookkeeping satisfies this.
    """

    #: registry name, surfaced in configs and bench records
    name: str = "abstract"

    closed: bool = False

    def begin_job(self, job) -> Any:
        """Prepare per-job state (e.g. a spill directory); returns the job
        session the scheduler passes back to :meth:`map_spill_spec`."""
        return None

    def map_spill_spec(
        self, job, task_id: str, task_index: int, session: Any = None
    ) -> SpillSpec | None:
        """Spill instructions for one map task; ``None`` = inline emissions."""
        return None

    @abstractmethod
    def plan_reduce(self, job, map_results, stats) -> list[ReduceInput]:
        """Account the shuffle into ``stats`` and plan the reduce inputs."""

    def close(self) -> None:
        """Release backend resources; safe to call more than once."""
        self.closed = True

    def __enter__(self) -> "ShuffleStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class InMemoryShuffleStore(ShuffleStore):
    """The historical shuffle: dict buckets, materialized sorted groups.

    This is the oracle the spill backend is tested against — bit-identical
    outputs, counters and accounting are the contract, not an aspiration.
    """

    name = "memory"

    def __init__(
        self,
        memory_budget: int | None = None,
        spill_dir: str | None = None,
    ) -> None:
        # knobs accepted for interface uniformity; nothing ever spills
        del memory_budget, spill_dir

    def plan_reduce(self, job, map_results, stats) -> list[ReduceInput]:
        buckets: list[dict[Any, list[Any]]] = [{} for _ in range(job.num_reducers)]
        shuffle_bytes = 0
        shuffle_records = 0
        for attempt in map_results:
            for key, value in attempt.emissions:
                reducer_index = job.partitioner.assign(key, job.num_reducers)
                if not 0 <= reducer_index < job.num_reducers:
                    raise ValueError(
                        f"partitioner produced reducer {reducer_index} "
                        f"outside [0, {job.num_reducers})"
                    )
                buckets[reducer_index].setdefault(key, []).append(value)
                # per-record accounting: a columnar block counts one record
                # (and one key copy — Hadoop frames the key with every record)
                # per row, so block encoding never shows up in the metrics
                records = record_count(value)
                shuffle_records += records
                shuffle_bytes += estimate_bytes(key) * records + estimate_bytes(value)
        stats.shuffle_records = shuffle_records
        stats.shuffle_bytes = shuffle_bytes
        return [
            ReduceInput(
                reducer=index,
                groups=sorted(
                    bucket.items(), key=lambda item: shuffle_sort_key(item[0])
                ),
            )
            for index, bucket in enumerate(buckets)
            if bucket
        ]


class SpillShuffleStore(ShuffleStore):
    """Disk-backed shuffle: map tasks spill sorted runs, reducers merge them.

    ``memory_budget`` bounds each map task's buffered output (in deterministic
    ``estimate_bytes`` units) before a flush; ``None`` buffers the whole task
    and writes one run per reducer at the end — still out-of-core across the
    *shuffle* (nothing is bucketed in the scheduler, and process workers ship
    manifests instead of data).  ``spill_dir`` hosts the store's private
    directory (a fresh ``mkdtemp`` under it, or under the system temp dir);
    :meth:`close` removes everything the store wrote.
    """

    name = "spill"

    def __init__(
        self,
        memory_budget: int | None = None,
        spill_dir: str | None = None,
        merge_fan_in: int = DEFAULT_MERGE_FAN_IN,
    ) -> None:
        if memory_budget is not None and memory_budget < 0:
            raise ValueError("memory_budget must be >= 0 (or None)")
        if merge_fan_in < 2:
            raise ValueError("merge_fan_in must be >= 2")
        self.memory_budget = memory_budget
        self.merge_fan_in = merge_fan_in
        self._scratch = OwnedScratchDir(prefix="repro-shuffle-", parent=spill_dir)
        self._job_counter = 0
        #: guards the job counter and lazy scratch creation — a store handed
        #: to several runtimes serves their jobs from several threads at once
        self._lock = threading.Lock()

    # -- scheduler side -------------------------------------------------------

    def begin_job(self, job) -> str:
        """Create this job's private spill directory and return it (the job
        session).  Each job gets its own counter-uniquified directory, so
        same-named jobs run on one store never collide."""
        self._check_open()
        with self._lock:
            self._job_counter += 1
            counter = self._job_counter
            root = self._scratch.ensure()
        job_dir = Path(root) / f"job{counter:04d}-{job.name}"
        job_dir.mkdir()
        return str(job_dir)

    def map_spill_spec(
        self, job, task_id: str, task_index: int, session: Any = None
    ) -> SpillSpec:
        if session is None:
            raise RuntimeError("map_spill_spec called before begin_job")
        return SpillSpec(
            directory=session,
            budget=self.memory_budget,
            task_index=task_index,
            task_id=task_id,
        )

    def plan_reduce(self, job, map_results, stats) -> list[ReduceInput]:
        per_reducer: list[list[Segment]] = [[] for _ in range(job.num_reducers)]
        entries: list[int] = [0] * job.num_reducers
        shuffle_records = 0
        shuffle_bytes = 0
        spill_bytes = 0
        spill_segments = 0
        # map-task order, so the (commutative) totals sum the same terms the
        # in-memory loop adds — accounting comes from headers, never records
        for attempt in map_results:
            manifest = attempt.manifest
            if manifest is None:  # a task with no reducer-bound output
                continue
            for segment in manifest.segments:
                per_reducer[segment.reducer].append(segment)
                entries[segment.reducer] += segment.entries
                shuffle_records += segment.records
                shuffle_bytes += segment.accounted_bytes
                spill_bytes += segment.file_bytes
                spill_segments += 1
        stats.shuffle_records = shuffle_records
        stats.shuffle_bytes = shuffle_bytes
        stats.spill_segments = spill_segments
        stats.spill_bytes = spill_bytes
        # the bounded-fan-in merge schedule is deterministic, so the
        # scheduler can account every reducer's merges without running them
        stats.merge_passes = sum(
            planned_merge_passes(len(segments), self.merge_fan_in)
            for index, segments in enumerate(per_reducer)
            if entries[index]
        )
        return [
            ReduceInput(
                reducer=index,
                segments=tuple(segments),
                merge_fan_in=self.merge_fan_in,
            )
            for index, segments in enumerate(per_reducer)
            if entries[index]  # an entry-free reducer never ran in-memory either
        ]

    # -- lifecycle ------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("shuffle store is closed")

    def close(self) -> None:
        self.closed = True
        self._scratch.close()


#: backend name -> store class; a distributed shuffle service registers here
SHUFFLE_BACKENDS: dict[str, type[ShuffleStore]] = {
    InMemoryShuffleStore.name: InMemoryShuffleStore,
    SpillShuffleStore.name: SpillShuffleStore,
}


def available_shuffle_backends() -> tuple[str, ...]:
    """Registered shuffle backend names, sorted."""
    return tuple(sorted(SHUFFLE_BACKENDS))


def get_shuffle_store(
    backend: str = DEFAULT_SHUFFLE,
    memory_budget: int | None = None,
    spill_dir: str | None = None,
) -> ShuffleStore:
    """Resolve a backend name into a ready store instance.

    Backend-specific knobs beyond these (e.g. ``merge_fan_in``) are set by
    constructing the store directly and injecting it into the runtime.
    """
    try:
        store_class = SHUFFLE_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown shuffle backend {backend!r}; "
            f"available: {', '.join(available_shuffle_backends())}"
        ) from None
    return store_class(memory_budget=memory_budget, spill_dir=spill_dir)
