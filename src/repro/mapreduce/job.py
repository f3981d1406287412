"""Job specification: mappers, reducers, combiners and their context.

The programming model mirrors Hadoop's: a :class:`Mapper` (and optionally a
:class:`Reducer`) with ``setup`` / per-record / ``cleanup`` hooks.  ``setup``
is where Algorithm 3 does its ``map-setup`` work (line 1-2); ``cleanup`` is
how the first job's mappers emit their partial summary tables.  Data objects
reach a task only as :class:`~repro.mapreduce.types.RecordBlock` values —
blocks are the one row format — and every mapper that routes them is a
:class:`BlockBufferingMapper`.

Task instances are created fresh per attempt from factories, so injected
failures can be retried deterministically.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from .counters import Counters
from .partitioners import HashPartitioner, Partitioner
from .types import RecordBlock

__all__ = ["Context", "Mapper", "Reducer", "BlockBufferingMapper", "MapReduceJob"]


class Context:
    """Per-task execution context.

    Provides Hadoop-equivalent facilities: counters, the read-only
    *distributed cache* (``cache``), side-output channels (how map tasks ship
    their partial summary tables to the job driver), and topology facts.
    """

    def __init__(
        self,
        task_id: str,
        cache: Mapping[str, Any],
        num_reducers: int,
    ) -> None:
        self.task_id = task_id
        self.cache = cache
        self.num_reducers = num_reducers
        self.counters = Counters()
        self.side_outputs: dict[str, list[Any]] = {}

    def side_output(self, channel: str, value: Any) -> None:
        """Emit a value on a named side channel (collected per task)."""
        self.side_outputs.setdefault(channel, []).append(value)

    def drain(self) -> tuple[Counters, dict[str, list[Any]]]:
        """Hand the task's accumulated state back to the scheduler.

        Contexts live and die inside one task attempt; parallel engines ship
        the drained counters and side outputs across the worker boundary as
        values — shared state is never mutated from a worker.
        """
        return self.counters, self.side_outputs


class Mapper:
    """Base mapper.  Subclasses override :meth:`map` (a generator)."""

    def setup(self, ctx: Context) -> None:
        """Called once before the first record of the task."""

    def map(self, key: Any, value: Any, ctx: Context) -> Iterable[tuple[Any, Any]]:
        """Process one input record; yield intermediate ``(key, value)`` pairs."""
        raise NotImplementedError

    def cleanup(self, ctx: Context) -> Iterable[tuple[Any, Any]]:
        """Called once after the last record; may yield trailing pairs."""
        return ()


class BlockBufferingMapper(Mapper):
    """Mapper base for every router of object rows: gather blocks, route one.

    :meth:`map` calls only buffer the task's
    :class:`~repro.mapreduce.types.RecordBlock` values; at :meth:`cleanup`
    they are gathered into one block (row order = input order) and handed to
    :meth:`route_block`, which yields ``(key, RecordBlock)`` emissions — at
    most one per key is the shape every routing mapper of the package aims
    for, and the map-only partitioning job emits exactly one.  All emission
    happens before the shuffle, so a block's rows are routed exactly as one
    row at a time would be; only the number of Python-level values crossing
    the shuffle shrinks.

    Subclasses overriding :meth:`setup` must call ``super().setup(ctx)``.
    """

    def setup(self, ctx: Context) -> None:
        self._pending: list[RecordBlock] = []

    def map(self, key: Any, value: RecordBlock, ctx: Context) -> Iterable[tuple[Any, Any]]:
        self._pending.append(value)
        return ()

    def cleanup(self, ctx: Context) -> Iterable[tuple[Any, Any]]:
        if not self._pending:
            return ()
        block = RecordBlock.gather(self._pending)
        self._pending = []
        return self.route_block(block, ctx)

    def route_block(
        self, block: RecordBlock, ctx: Context
    ) -> Iterable[tuple[Any, RecordBlock]]:
        """Route the task's whole input; yield ``(key, sub-block)`` pairs."""
        raise NotImplementedError


class Reducer:
    """Base reducer.  Subclasses override :meth:`reduce` (a generator)."""

    def setup(self, ctx: Context) -> None:
        """Called once before the first key of the task."""

    def reduce(self, key: Any, values: Iterable[Any], ctx: Context) -> Iterable[tuple[Any, Any]]:
        """Process one key group; yield output ``(key, value)`` pairs.

        ``values`` is an *iterable consumed once*: a materialized list under
        the in-memory shuffle backend, a lazily-decoded stream under the
        out-of-core spill backend (keys arrive merge-sorted either way, and
        value order within a key is arrival order in both).  Reducers that
        need random access materialize with ``list(values)`` (or
        :meth:`RecordBlock.gather`, which accepts any iterable); unconsumed
        values are drained by the runtime, so early exit is safe.
        """
        raise NotImplementedError

    def cleanup(self, ctx: Context) -> Iterable[tuple[Any, Any]]:
        """Called once after the last key; may yield trailing pairs."""
        return ()


@dataclass
class MapReduceJob:
    """A complete job description, submitted to a runtime.

    ``reducer_factory=None`` declares a map-only job (the paper's first job
    "consists of a single Map phase"); its map output goes to the distributed
    file system rather than through the shuffle, so it contributes no
    shuffling cost.

    Jobs cross the engine boundary whole: to run under the
    ``processes-pooled`` engine, factories must be picklable (module-level
    classes or functions, not lambdas or closures) and cache contents plain
    data — which every job in this package already satisfies.
    """

    name: str
    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer] | None = None
    combiner_factory: Callable[[], Reducer] | None = None
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    num_reducers: int = 1
    cache: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
