"""The MapReduce scheduler plus its pluggable execution engines.

Executes a :class:`~repro.mapreduce.job.MapReduceJob` with real Hadoop
semantics — input splits to map tasks, optional combiner, partitioned
shuffle with per-key sorted grouping, reduce tasks — while measuring what the
paper measures: per-task CPU seconds (fed to the cluster model for simulated
running time) and shuffle records/bytes.

The runtime is split into three layers:

* :class:`LocalRuntime` — the backend-agnostic *scheduler*.  It plans task
  batches, owns retry/fault-injection, and merges counters, side outputs and
  stats in deterministic task order.
* an :class:`~repro.mapreduce.engines.Executor` — the *engine* that runs one
  batch of independent task attempts: ``serial`` (default), ``threads-pooled``
  or ``processes-pooled``.  Task attempts are pure functions from ``(job, task spec)`` to an attempt outcome; workers
  return counters/side-outputs/durations as values instead of mutating
  scheduler state, so every engine produces bit-identical outputs.
* a :class:`~repro.mapreduce.shuffle.ShuffleStore` — *where the shuffle
  lives*: the in-memory ``"memory"`` backend buckets map emissions in the
  scheduler (the historical behavior), while the out-of-core ``"spill"``
  backend has map tasks write sorted segment files and return only segment
  *manifests*, and feeds reducers a streaming k-way external merge.  Both
  backends produce bit-identical outputs and accounting.

Fault tolerance is real, not just modelled: a ``fault_injector`` (a seeded
:class:`~repro.mapreduce.faults.ChaosPlan`) may crash, delay or kill any
task attempt and corrupt or delete spill segments;
the scheduler re-executes tasks (fresh instances from the factories) up to
``max_attempts`` times with exponential backoff, launches speculative
duplicate attempts for stragglers past their soft deadline (first success
wins, the loser's output is discarded — attempt-numbered spill files make
that safe), re-runs the producing map task when a reducer hits a lost or
corrupt segment (:class:`~repro.mapreduce.shuffle.SegmentLost`), and
survives broken worker pools.  Only successful attempts contribute output,
counters and side outputs — exactly once semantics, as Hadoop provides
through output commit.  Injection decisions are evaluated on the scheduler
side from hashed identities, so the same tasks fail the same way under
every engine.  Spilled segments written by failed or superseded attempts
are deleted eagerly (``spill_files_deleted``); whatever slips through
vanishes when the store closes.
"""

from __future__ import annotations

import os
import statistics
import time
import zlib
from collections.abc import Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, wait as futures_wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .counters import Counters
from .engines import DEFAULT_ENGINE, WORKER_LOSS_ERRORS, Executor, get_executor
from .faults import ChaosPlan, resolve_chaos
from .job import Context, MapReduceJob
from .serialization import estimate_bytes, record_count, shuffle_sort_key
from .shuffle import (
    DEFAULT_MERGE_FAN_IN,
    DEFAULT_SHUFFLE,
    MapManifest,
    SegmentLost,
    ShuffleStore,
    SpillMapWriter,
    SpillSpec,
    coalesce_emissions,
    get_shuffle_store,
    merged_segment_groups,
)
from .stats import JobStats, TaskStat
from .types import InputSplit

__all__ = ["LocalRuntime", "JobResult", "TaskFailure"]

#: how long the scheduler waits for superseded (loser) attempts to finish
#: before detaching them with a cleanup callback
_LOSER_GRACE_S = 5.0


class TaskFailure(RuntimeError):
    """A task attempt failed (injected or raised by user code).

    Scheduler-raised failures carry structured context — ``job_name``,
    ``task_id``, ``kind`` (map/reduce) and the ``attempts`` consumed — and
    chain the root-cause exception (``__cause__``), so a failure that
    crossed an engine boundary is still debuggable.
    """

    def __init__(
        self,
        message: str,
        job_name: str = "",
        task_id: str = "",
        kind: str = "",
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.job_name = job_name
        self.task_id = task_id
        self.kind = kind
        self.attempts = attempts

    def __reduce__(self):  # exceptions with extra state need explicit pickling
        return (
            _rebuild_task_failure,
            (str(self), self.job_name, self.task_id, self.kind, self.attempts),
        )


def _rebuild_task_failure(message, job_name, task_id, kind, attempts):
    return TaskFailure(
        message, job_name=job_name, task_id=task_id, kind=kind, attempts=attempts
    )


@dataclass
class JobResult:
    """Everything a completed job hands back to the driver."""

    job_name: str
    outputs: list[tuple[Any, Any]]
    outputs_by_reducer: list[list[tuple[Any, Any]]] | None
    side_outputs: dict[str, list[Any]]
    counters: Counters
    stats: JobStats

    def output_values(self) -> list[Any]:
        """Just the values of the job output, in emission order."""
        return [value for _, value in self.outputs]


# -- task specs and attempt outcomes (cross the engine boundary; picklable) ----


@dataclass
class _TaskSpec:
    """One schedulable task: a map split or a reduce input.

    Reduce inputs come in two shapes, matching the shuffle backends: fully
    materialized ``groups`` (in-memory), or a tuple of on-disk ``segments``
    the worker merge-streams (spill).  Map specs may carry a ``spill``
    instruction telling the worker to write its own segment files and return
    a manifest instead of emissions.
    """

    kind: str  # "map" | "reduce"
    task_id: str
    index: int  # position within its phase (split index / reducer index)
    split: InputSplit | None = None
    groups: list[tuple[Any, list[Any]]] | None = None  # reduce: key-sorted
    segments: tuple | None = None  # reduce: spilled runs to merge
    merge_fan_in: int = DEFAULT_MERGE_FAN_IN  # reduce: max runs per merge
    spill: SpillSpec | None = None  # map: write segments, return a manifest
    attempt: int = 1  # current attempt number (uniquifies spill file names)
    chaos_delay_s: float = 0.0  # injected straggler sleep for this attempt
    #: nonzero = scheduler pid; the worker dies (``os._exit``) iff its own
    #: pid differs, so an inline fallback can never kill the scheduler
    chaos_kill_from: int = 0

    def input_records(self) -> int:
        # record-weighted: a columnar RecordBlock counts its rows, so task
        # statistics stay comparable between the per-record and block paths
        if self.kind == "map":
            if self.split.logical_records is not None:
                return self.split.logical_records
            return sum(record_count(value) for _, value in self.split.records)
        if self.segments is not None:
            return sum(segment.records for segment in self.segments)
        return sum(
            record_count(value) for _, values in self.groups for value in values
        )


@dataclass
class _AttemptOutcome:
    """What one task attempt sends back from a worker.

    ``ok=False`` carries a :class:`TaskFailure` message as a *value* — raising
    inside a pool worker would abort the whole batch, and the retry decision
    belongs to the scheduler.  Spilling map tasks return a ``manifest`` of
    segment descriptors in place of ``emissions`` — the data itself never
    crosses the worker boundary.
    """

    ok: bool
    emissions: list[tuple[Any, Any]] = field(default_factory=list)
    manifest: MapManifest | None = None
    counters: Counters = field(default_factory=Counters)
    side_outputs: dict[str, list[Any]] = field(default_factory=dict)
    duration_s: float = 0.0
    error: str = ""
    #: the caught exception itself — keeps the user-code traceback for the
    #: in-process engines (pickling strips tracebacks across processes)
    cause: TaskFailure | None = None
    #: set when the failure was a lost/corrupt shuffle segment: the path that
    #: failed, the producing map task's index (the recovery handle; -1 when
    #: the segment had no single producer) and whether a CRC check caught it
    lost_path: str = ""
    lost_task_index: int = -1
    checksum_failure: bool = False


@dataclass
class _Attempted:
    """Successful task attempt: emissions (or a manifest) plus bookkeeping."""

    emissions: list[tuple[Any, Any]]
    counters: Counters
    side_outputs: dict[str, list[Any]]
    duration_s: float
    attempts: int
    input_records: int = 0
    manifest: MapManifest | None = None

    def output_records(self) -> int:
        if self.manifest is not None:
            return self.manifest.output_records
        return _emission_records(self.emissions)


@dataclass
class _MapRecovery:
    """What the reduce phase needs to re-run a map task whose output was lost:
    the original map specs by index, and the attempts each already consumed
    (a recovery re-run continues the numbering, so its spill files never
    collide with still-referenced files of the superseded attempt)."""

    specs: dict[int, _TaskSpec]
    attempts: dict[int, int]


def _execute_attempt(job: MapReduceJob, task: _TaskSpec) -> _AttemptOutcome:
    """Run one task attempt end to end (module-level: picklable by reference).

    This is the only code that runs inside engine workers; everything it
    needs arrives through ``job`` and ``task``, and everything it produces
    leaves through the returned outcome.
    """
    ctx = Context(task_id=task.task_id, cache=job.cache, num_reducers=job.num_reducers)
    # CPU time of this thread, not wall-clock: concurrent workers contending
    # on the GIL (or the scheduler) must not inflate each other's measured
    # task cost — simulated running times stay comparable across engines
    started = time.thread_time()
    manifest: MapManifest | None = None
    try:
        if task.chaos_kill_from:
            _chaos_kill_worker(task)
        if task.chaos_delay_s > 0.0:
            # wall-clock sleep: thread_time() measures CPU, so an injected
            # straggler delays completion without distorting task stats
            time.sleep(task.chaos_delay_s)
        if task.kind == "map" and task.spill is not None:
            emissions, manifest = [], _map_attempt_spilled(job, task, ctx)
        elif task.kind == "map":
            emissions = _map_attempt(job, task.split, ctx)
            if job.reducer_factory is not None:
                # what crosses the worker boundary (and then rides in the
                # reduce specs) is one block per key, not one per emission;
                # a map-only job's emission structure is its output — untouched
                emissions = coalesce_emissions(emissions)
        else:
            emissions = _reduce_attempt(job, task, ctx)
    except TaskFailure as error:
        return _AttemptOutcome(ok=False, error=str(error), cause=error)
    except SegmentLost as error:
        failure = TaskFailure(
            str(error), task_id=task.task_id, kind=task.kind, attempts=task.attempt
        )
        return _AttemptOutcome(
            ok=False,
            error=str(error),
            cause=failure,
            lost_path=error.path,
            lost_task_index=error.task_index,
            checksum_failure=error.checksum,
        )
    duration = time.thread_time() - started
    counters, side_outputs = ctx.drain()
    return _AttemptOutcome(
        ok=True,
        emissions=emissions,
        manifest=manifest,
        counters=counters,
        side_outputs=side_outputs,
        duration_s=duration,
    )


def _chaos_kill_worker(task: _TaskSpec) -> None:
    """Die like an OOM-killed worker process: no cleanup, no goodbye.

    Only when this code actually runs in a worker process (pid differs from
    the scheduler that stamped the spec) — engines fall back to inline
    execution for tiny batches, where exiting would take the scheduler down.
    There the kill degrades to a crash, which the scheduler retries.
    """
    if os.getpid() != task.chaos_kill_from:
        os._exit(13)
    raise TaskFailure(
        f"chaos kill of {task.task_id} attempt {task.attempt} "
        "(task ran inline in the scheduler process; degraded to a crash)",
        task_id=task.task_id,
        kind=task.kind,
        attempts=task.attempt,
    )


def _discard_detached_loser(future) -> None:
    """Done-callback for a superseded attempt that outlived its grace period:
    delete whatever spill files it produced.  Runs on an executor callback
    thread after the phase has moved on — it must never touch scheduler
    state, and silence is the only acceptable failure mode."""
    try:
        outcome = future.result()
    except BaseException:
        return
    if outcome.ok and outcome.manifest is not None:
        for segment in outcome.manifest.segments:
            try:
                os.unlink(segment.path)
            except OSError:
                pass


def _iter_map_emissions(
    job: MapReduceJob, split: InputSplit, ctx: Context
) -> Iterator[tuple[Any, Any]]:
    """Stream one map task's raw emissions (setup → per-record → cleanup)."""
    mapper = job.mapper_factory()
    mapper.setup(ctx)
    for key, value in split.records:
        yield from mapper.map(key, value, ctx)
    yield from mapper.cleanup(ctx)


def _map_attempt(
    job: MapReduceJob, split: InputSplit, ctx: Context
) -> list[tuple[Any, Any]]:
    emissions = list(_iter_map_emissions(job, split, ctx))
    if job.combiner_factory is not None:
        emissions = _combine(job, emissions, ctx)
    return emissions


def _map_attempt_spilled(
    job: MapReduceJob, task: _TaskSpec, ctx: Context
) -> MapManifest:
    """Map attempt that spills its own output: emissions stream straight into
    the partitioned writer (a combiner forces one materialization first, as
    combining is defined over the whole task output)."""
    writer = SpillMapWriter(
        task.spill, task.attempt, job.partitioner, job.num_reducers
    )
    if job.combiner_factory is None:
        for key, value in _iter_map_emissions(job, task.split, ctx):
            writer.add(key, value)
    else:
        for key, value in _map_attempt(job, task.split, ctx):
            writer.add(key, value)
    return writer.finish()


def _reduce_attempt(
    job: MapReduceJob, task: _TaskSpec, ctx: Context
) -> list[tuple[Any, Any]]:
    reducer = job.reducer_factory()
    emissions: list[tuple[Any, Any]] = []
    reducer.setup(ctx)
    if task.segments is not None:
        # streaming path: keys arrive merge-sorted, values decode lazily;
        # the scratch prefix keeps intermediate merge runs of concurrent
        # (and retried) reduce attempts from colliding
        groups = merged_segment_groups(
            task.segments,
            fan_in=task.merge_fan_in,
            scratch_prefix=f"{task.task_id}-a{task.attempt:02d}",
        )
        for key, values in groups:
            emissions.extend(reducer.reduce(key, values, ctx))
    else:
        for key, values in task.groups:
            emissions.extend(reducer.reduce(key, values, ctx))
    emissions.extend(reducer.cleanup(ctx))
    return emissions


def _combine(
    job: MapReduceJob, emissions: list[tuple[Any, Any]], ctx: Context
) -> list[tuple[Any, Any]]:
    """Run the combiner over one map task's output (Hadoop's local reduce)."""
    grouped: dict[Any, list[Any]] = {}
    for key, value in emissions:
        grouped.setdefault(key, []).append(value)
    combiner = job.combiner_factory()
    combined: list[tuple[Any, Any]] = []
    combiner.setup(ctx)
    for key in sorted(grouped, key=shuffle_sort_key):
        combined.extend(combiner.reduce(key, grouped[key], ctx))
    combined.extend(combiner.cleanup(ctx))
    return combined


class LocalRuntime:
    """Backend-agnostic scheduler: plans tasks, an engine executes them.

    ``engine`` selects an execution backend by name (``serial``, or
    ``threads-pooled`` / ``processes-pooled``, which keep one warm pool
    across every job the runtime runs); ``max_workers`` sizes the parallel
    pools (default: CPU count).
    Alternatively pass a ready :class:`Executor` instance via ``executor`` —
    the seam custom backends plug into, and the way several runtimes can
    share one persistent pool.

    ``shuffle`` selects the shuffle backend by name (``memory``, the
    historical default, or the out-of-core ``spill``) or accepts a ready
    :class:`~repro.mapreduce.shuffle.ShuffleStore`.  Setting ``memory_budget``
    (bytes of buffered map output per task before a spill run), ``spill_dir``,
    or a non-``"none"`` ``spill_codec`` (segment value-payload compression,
    see :data:`~repro.mapreduce.shuffle.SEGMENT_CODECS`) implies ``spill``.
    Both backends produce bit-identical results and accounting under every
    engine and codec.

    Fault-tolerance knobs: ``fault_injector`` takes a seeded
    :class:`~repro.mapreduce.faults.ChaosPlan` (or an object answering its
    three scheduler queries) and nothing else; ``max_attempts`` bounds
    retries, which back off exponentially (``retry_backoff_s`` doubling per
    round up to ``retry_backoff_cap_s``, with deterministic jitter).
    ``task_timeout`` sets an absolute soft deadline in seconds after which a
    running attempt gets a speculative duplicate (first success wins);
    without it, ``speculation`` (on by default) infers a deadline of
    ``speculation_factor`` × the median completed attempt wall time in the
    phase, floored at ``speculation_floor_s`` so millisecond-scale tasks
    never speculate.
    Speculation needs per-task completion events, so it is active only on
    engines that provide them (the pooled ones); the serial engine ignores
    it.

    The runtime has an explicit lifecycle: :meth:`close` tears down the
    executor and shuffle store it constructed (idempotent; instances passed
    in belong to the caller and are left open), and the runtime is a context
    manager so drivers can hold a pool — and the spill directory — exactly
    as long as one join runs.
    """

    def __init__(
        self,
        fault_injector: ChaosPlan | None = None,
        max_attempts: int = 4,
        engine: str = DEFAULT_ENGINE,
        max_workers: int | None = None,
        executor: Executor | None = None,
        shuffle: str | ShuffleStore = DEFAULT_SHUFFLE,
        memory_budget: int | None = None,
        spill_dir: str | None = None,
        spill_codec: str = "none",
        task_timeout: float | None = None,
        speculation: bool = True,
        speculation_factor: float = 4.0,
        speculation_floor_s: float = 2.0,
        retry_backoff_s: float = 0.02,
        retry_backoff_cap_s: float = 1.0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be > 0 seconds")
        self.fault_injector = resolve_chaos(fault_injector)
        self.max_attempts = max_attempts
        self.task_timeout = task_timeout
        self.speculation = speculation
        self.speculation_factor = speculation_factor
        self.speculation_floor_s = speculation_floor_s
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s
        self._owns_executor = executor is None
        self.executor = executor if executor is not None else get_executor(engine, max_workers)
        self._owns_store = not isinstance(shuffle, ShuffleStore)
        if isinstance(shuffle, ShuffleStore):
            self.shuffle_store = shuffle
        else:
            backend = shuffle
            if backend == DEFAULT_SHUFFLE and (
                memory_budget is not None
                or spill_dir is not None
                or spill_codec != "none"
            ):
                backend = "spill"  # the knobs only mean something out-of-core
            self.shuffle_store = get_shuffle_store(
                backend,
                memory_budget=memory_budget,
                spill_dir=spill_dir,
                codec=spill_codec,
            )

    @property
    def engine(self) -> str:
        """Name of the execution backend in use."""
        return self.executor.name

    @property
    def shuffle_backend(self) -> str:
        """Name of the shuffle backend in use."""
        return self.shuffle_store.name

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Release the executor (worker pools) and the shuffle store (spill
        files); safe to call more than once.

        Only resources the runtime constructed itself are closed — a shared
        executor or store injected by the caller stays open for its other
        runtimes.
        """
        if self._owns_executor:
            self.executor.close()
        if self._owns_store:
            self.shuffle_store.close()

    def __enter__(self) -> "LocalRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API -----------------------------------------------------------

    def run(self, job: MapReduceJob, splits: Sequence[InputSplit]) -> JobResult:
        """Execute a job over the given input splits."""
        counters = Counters()
        side_outputs: dict[str, list[Any]] = {}
        stats = JobStats(job_name=job.name)
        stats.cache_bytes = _cache_bytes(job.cache)

        # the job session scopes per-job shuffle state (e.g. a spill
        # directory) to this run() call, so the jobs of one plan — which
        # share one runtime and may share a job name — never interleave their
        # shuffle storage
        shuffle_session = (
            self.shuffle_store.begin_job(job)
            if job.reducer_factory is not None
            else None
        )
        map_specs = []
        for index, split in enumerate(splits):
            task_id = f"{job.name}-m-{index:05d}"
            spill = (
                self.shuffle_store.map_spill_spec(job, task_id, index, shuffle_session)
                if job.reducer_factory is not None
                else None
            )
            map_specs.append(
                _TaskSpec(
                    kind="map", task_id=task_id, index=index, split=split, spill=spill
                )
            )
        map_results = self._run_phase(job, map_specs, stats)
        for spec, attempt in zip(map_specs, map_results):
            counters.merge(attempt.counters)
            for channel, values in attempt.side_outputs.items():
                side_outputs.setdefault(channel, []).extend(values)
            stats.map_tasks.append(
                TaskStat(
                    task_id=spec.task_id,
                    kind="map",
                    duration_s=attempt.duration_s,
                    input_records=attempt.input_records,
                    output_records=attempt.output_records(),
                    attempts=attempt.attempts,
                )
            )

        if job.reducer_factory is None:
            # map-only job: output goes to the DFS, no shuffle occurs
            outputs = [pair for attempt in map_results for pair in attempt.emissions]
            stats.output_bytes = _pairs_bytes(outputs)
            return JobResult(job.name, outputs, None, side_outputs, counters, stats)

        reduce_inputs = self.shuffle_store.plan_reduce(job, map_results, stats)

        # reducers can lose a segment (deleted, corrupt) mid-merge; the
        # recovery context lets the phase re-run the producing map task —
        # attempt numbering continues where the map phase left off, so the
        # re-run's spill files never collide with still-referenced ones
        map_recovery = _MapRecovery(
            specs={spec.index: spec for spec in map_specs},
            attempts={
                spec.index: attempt.attempts
                for spec, attempt in zip(map_specs, map_results)
            },
        )
        reduce_specs = [
            _TaskSpec(
                kind="reduce",
                task_id=f"{job.name}-r-{plan.reducer:05d}",
                index=plan.reducer,
                groups=plan.groups,
                segments=plan.segments,
                merge_fan_in=plan.merge_fan_in,
            )
            for plan in reduce_inputs
        ]
        reduce_results = dict(
            zip(
                (spec.index for spec in reduce_specs),
                self._run_phase(job, reduce_specs, stats, map_recovery=map_recovery),
            )
        )

        outputs_by_reducer: list[list[tuple[Any, Any]]] = []
        for reducer_index in range(job.num_reducers):
            attempt = reduce_results.get(reducer_index)
            if attempt is None:
                outputs_by_reducer.append([])
                stats.reduce_tasks.append(
                    TaskStat(
                        task_id=f"{job.name}-r-{reducer_index:05d}",
                        kind="reduce",
                        duration_s=0.0,
                        input_records=0,
                        output_records=0,
                    )
                )
                continue
            counters.merge(attempt.counters)
            for channel, values in attempt.side_outputs.items():
                side_outputs.setdefault(channel, []).extend(values)
            outputs_by_reducer.append(attempt.emissions)
            stats.reduce_tasks.append(
                TaskStat(
                    task_id=f"{job.name}-r-{reducer_index:05d}",
                    kind="reduce",
                    duration_s=attempt.duration_s,
                    input_records=attempt.input_records,
                    output_records=_emission_records(attempt.emissions),
                    attempts=attempt.attempts,
                )
            )

        outputs = [pair for per_reducer in outputs_by_reducer for pair in per_reducer]
        stats.output_bytes = _pairs_bytes(outputs)
        return JobResult(job.name, outputs, outputs_by_reducer, side_outputs, counters, stats)

    # -- phase scheduling -------------------------------------------------------

    def _run_phase(
        self,
        job: MapReduceJob,
        specs: list[_TaskSpec],
        stats: JobStats,
        map_recovery: _MapRecovery | None = None,
        start_attempts: dict[int, int] | None = None,
    ) -> list[_Attempted]:
        """Run one phase's tasks through the engine, with scheduler-side retries.

        Each round dispatches every still-pending task as one engine batch;
        failed attempts (injected chaos, :class:`TaskFailure` raised by user
        code, lost workers, lost segments) re-enter the next round — after an
        exponential backoff — until they succeed or exhaust ``max_attempts``.
        When the engine can report per-task completions, dispatch goes through
        the speculative path, which duplicates attempts that outlive their
        soft deadline.  A reduce attempt that failed because a shuffle segment
        was lost or corrupt triggers map recovery between rounds: the
        producing map task re-runs (``map_recovery`` carries its spec) and the
        pending reduce specs are re-pointed at the fresh segments.  Results
        come back in spec order regardless of how many rounds their tasks
        needed.
        """
        completed: dict[int, _Attempted] = {}
        attempts_used = {
            spec.index: (start_attempts or {}).get(spec.index, 0) for spec in specs
        }
        refunds = {spec.index: 0 for spec in specs}
        durations: list[float] = []  # wall seconds of completed attempts
        pending = list(specs)
        round_number = 0
        while pending:
            round_number += 1
            if round_number > 1:
                self._backoff_before_retry(pending[0].task_id, round_number)
            dispatch: list[_TaskSpec] = []
            retry: list[_TaskSpec] = []
            for spec in pending:
                attempts_used[spec.index] += 1
                number = attempts_used[spec.index]
                spec.attempt = number  # spill files are attempt-tagged
                spec.chaos_delay_s = 0.0
                spec.chaos_kill_from = 0
                action = (
                    self.fault_injector.attempt_action(
                        job.name, spec.kind, spec.task_id, number
                    )
                    if self.fault_injector is not None
                    else None
                )
                if (
                    action is not None
                    and action.action == "kill"
                    and not self.executor.process_based
                ):
                    # no worker process to kill on this engine
                    action = replace(action, action="crash")
                if action is not None and action.action == "crash":
                    cause = TaskFailure(
                        f"injected failure of {spec.task_id} attempt {number}",
                        job_name=job.name,
                        task_id=spec.task_id,
                        kind=spec.kind,
                        attempts=number,
                    )
                    self._check_attempts_left(job, spec, number, cause)
                    retry.append(spec)
                    continue
                if action is not None and action.action == "delay":
                    spec.chaos_delay_s = action.delay_s
                elif action is not None and action.action == "kill":
                    spec.chaos_kill_from = os.getpid()
                dispatch.append(spec)
            outcomes = self._dispatch(job, dispatch, attempts_used, durations, stats)
            lost_indices: set[int] = set()
            for spec, outcome in zip(dispatch, outcomes):
                if outcome.ok:
                    if spec.kind == "map":
                        self._apply_segment_chaos(job, spec, outcome.manifest)
                    completed[spec.index] = _Attempted(
                        emissions=outcome.emissions,
                        counters=outcome.counters,
                        side_outputs=outcome.side_outputs,
                        duration_s=outcome.duration_s,
                        attempts=attempts_used[spec.index],
                        input_records=spec.input_records(),
                        manifest=outcome.manifest,
                    )
                    continue
                if outcome.checksum_failure:
                    stats.checksum_failures += 1
                self._delete_attempt_spills(spec, attempts_used[spec.index], stats)
                recoverable = (
                    outcome.lost_task_index >= 0
                    and map_recovery is not None
                    and outcome.lost_task_index in map_recovery.specs
                )
                if recoverable:
                    lost_indices.add(outcome.lost_task_index)
                    if refunds[spec.index] < self.max_attempts:
                        # blame the mapper, as Hadoop blames fetch failures
                        # on the serving side: the reduce attempt is refunded
                        # (bounded, so a persistently-corrupting fault still
                        # terminates through normal attempt accounting)
                        refunds[spec.index] += 1
                        attempts_used[spec.index] -= 1
                        retry.append(spec)
                        continue
                cause = outcome.cause or TaskFailure(
                    outcome.error,
                    job_name=job.name,
                    task_id=spec.task_id,
                    kind=spec.kind,
                    attempts=attempts_used[spec.index],
                )
                self._check_attempts_left(job, spec, attempts_used[spec.index], cause)
                retry.append(spec)
            if lost_indices:
                self._recover_lost_maps(
                    job, sorted(lost_indices), map_recovery, retry, stats
                )
            pending = retry
        return [completed[spec.index] for spec in specs]

    def _check_attempts_left(
        self, job: MapReduceJob, spec: _TaskSpec, number: int, cause: TaskFailure
    ) -> None:
        if number >= self.max_attempts:
            raise TaskFailure(
                f"job {job.name!r}: {spec.kind} task {spec.task_id} failed after "
                f"{self.max_attempts} attempts: {cause}",
                job_name=job.name,
                task_id=spec.task_id,
                kind=spec.kind,
                attempts=self.max_attempts,
            ) from cause

    def _backoff_before_retry(self, task_id: str, round_number: int) -> None:
        """Exponential backoff before a retry round, with deterministic jitter
        (hashed from the first pending task's identity, not drawn from an
        RNG) so concurrent phases don't retry in lockstep."""
        if self.retry_backoff_s <= 0:
            return
        delay = min(
            self.retry_backoff_s * 2 ** (round_number - 2), self.retry_backoff_cap_s
        )
        fraction = (zlib.crc32(f"{task_id}|{round_number}".encode()) % 1000) / 1000.0
        time.sleep(delay * (0.75 + 0.5 * fraction))

    # -- dispatch ---------------------------------------------------------------

    def _dispatch(
        self,
        job: MapReduceJob,
        dispatch: list[_TaskSpec],
        attempts_used: dict[int, int],
        durations: list[float],
        stats: JobStats,
    ) -> list[_AttemptOutcome]:
        """Run one round's batch, turning lost-worker errors into retryable
        per-task failures.  Prefers the engine's per-task completion events
        (``submit_batch``) so stragglers can be speculatively duplicated;
        otherwise the batch is one blocking ``run_tasks`` call."""
        if not dispatch:
            return []
        if self.speculation and len(dispatch) > 1:
            try:
                batch = self.executor.submit_batch(_execute_attempt, job, dispatch)
            except WORKER_LOSS_ERRORS as error:
                # pooled engines note their own break on the submit path
                return [self._worker_lost_outcome(spec, error) for spec in dispatch]
            if batch is not None:
                return self._dispatch_speculative(
                    job, batch, dispatch, attempts_used, durations, stats
                )
        started = time.monotonic()
        try:
            outcomes = list(self.executor.run_tasks(_execute_attempt, job, dispatch))
        except WORKER_LOSS_ERRORS as error:
            return [self._worker_lost_outcome(spec, error) for spec in dispatch]
        if len(dispatch) == 1:
            durations.append(time.monotonic() - started)
        return outcomes

    def _dispatch_speculative(
        self,
        job: MapReduceJob,
        batch,
        dispatch: list[_TaskSpec],
        attempts_used: dict[int, int],
        durations: list[float],
        stats: JobStats,
    ) -> list[_AttemptOutcome]:
        """Event-driven dispatch with soft deadlines and duplicate attempts.

        Waits for completions with a timeout set by the earliest pending
        deadline; an attempt still running past its deadline gets a duplicate
        (chaos-free — the duplicate exists to dodge the injected straggler)
        submitted to the same batch.  First success wins; the loser's output
        is discarded and its spill files deleted.  If a worker dies, the
        remaining futures are drained without speculating and every affected
        task becomes a retryable failure.
        """
        results: list[_AttemptOutcome | None] = [None] * len(dispatch)
        now = time.monotonic()
        started = [now] * len(dispatch)
        duplicated = [False] * len(dispatch)
        dup_attempt = [0] * len(dispatch)
        parked_failures: dict[int, _AttemptOutcome] = {}
        active: dict[Any, tuple[int, int]] = {}  # future -> (pos, attempt no.)
        broken = False
        for pos, future in enumerate(batch.futures):
            active[future] = (pos, dispatch[pos].attempt)
        try:
            while active:
                if all(result is not None for result in results):
                    # only superseded losers are still running
                    self._drain_losers(active, stats)
                    break
                timeout = self._wait_timeout(results, duplicated, started, durations)
                done, _ = futures_wait(
                    set(active), timeout=timeout, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                for future in done:
                    pos, attempt_number = active.pop(future)
                    outcome, worker_lost = self._future_outcome(
                        dispatch[pos], attempt_number, future
                    )
                    if worker_lost and not broken:
                        broken = True
                        self.executor.handle_broken()
                    if results[pos] is not None:
                        # a sibling attempt already resolved this task
                        self._discard_loser(outcome, stats)
                        continue
                    sibling_running = any(p == pos for p, _ in active.values())
                    if outcome.ok:
                        parked_failures.pop(pos, None)
                        results[pos] = outcome
                        durations.append(now - started[pos])
                        if duplicated[pos] and attempt_number == dup_attempt[pos]:
                            stats.speculative_wins += 1
                    elif sibling_running:
                        # let the duplicate finish before declaring failure
                        parked_failures[pos] = outcome
                    else:
                        # both attempts failed: report the original's failure
                        results[pos] = parked_failures.pop(pos, outcome)
                if broken:
                    continue  # just drain; the retry round rebuilds the pool
                deadline = self._deadline(durations)
                if deadline is None:
                    continue
                for pos, spec in enumerate(dispatch):
                    if results[pos] is not None or duplicated[pos]:
                        continue
                    if now - started[pos] < deadline:
                        continue
                    if attempts_used[spec.index] + 1 > self.max_attempts:
                        continue  # no attempt left to speculate with
                    attempts_used[spec.index] += 1
                    number = attempts_used[spec.index]
                    duplicate = replace(
                        spec, attempt=number, chaos_delay_s=0.0, chaos_kill_from=0
                    )
                    try:
                        future = batch.submit(duplicate)
                    except WORKER_LOSS_ERRORS:
                        attempts_used[spec.index] -= 1
                        broken = True
                        break
                    duplicated[pos] = True
                    dup_attempt[pos] = number
                    active[future] = (pos, number)
        finally:
            batch.close()
        for pos, spec in enumerate(dispatch):
            if results[pos] is None:
                results[pos] = parked_failures.get(pos) or self._worker_lost_outcome(
                    spec, RuntimeError("attempt never completed")
                )
        return results

    def _future_outcome(
        self, spec: _TaskSpec, attempt_number: int, future
    ) -> tuple[_AttemptOutcome, bool]:
        """Resolve one attempt future; lost workers become failure values."""
        try:
            return future.result(), False
        except WORKER_LOSS_ERRORS as error:
            return self._worker_lost_outcome(spec, error, attempt_number), True

    def _worker_lost_outcome(
        self, spec: _TaskSpec, error: BaseException, attempt_number: int | None = None
    ) -> _AttemptOutcome:
        number = attempt_number if attempt_number is not None else spec.attempt
        return _AttemptOutcome(
            ok=False,
            error=(
                f"worker lost running {spec.task_id} attempt {number}: "
                f"{type(error).__name__}: {error}"
            ),
        )

    def _deadline(self, durations: list[float]) -> float | None:
        """Soft deadline for a running attempt: ``speculation_factor`` × the
        median completed-attempt wall time this phase (floored so tiny tasks
        never speculate), capped by an absolute ``task_timeout`` if set."""
        deadline = None
        if durations:
            deadline = max(
                statistics.median(durations) * self.speculation_factor,
                self.speculation_floor_s,
            )
        if self.task_timeout is not None:
            deadline = (
                self.task_timeout
                if deadline is None
                else min(deadline, self.task_timeout)
            )
        return deadline

    def _wait_timeout(
        self,
        results: list,
        duplicated: list[bool],
        started: list[float],
        durations: list[float],
    ) -> float | None:
        """Longest time the wait may block before some pending attempt
        crosses its deadline and deserves a speculative duplicate."""
        deadline = self._deadline(durations)
        if deadline is None:
            return None
        now = time.monotonic()
        remaining = [
            started[pos] + deadline - now
            for pos in range(len(results))
            if results[pos] is None and not duplicated[pos]
        ]
        if not remaining:
            return None
        return max(0.005, min(remaining))

    def _drain_losers(self, active: dict, stats: JobStats) -> None:
        """Every task is resolved but superseded attempts are still running:
        give them a bounded grace to finish (so their files are deleted and
        counted), then detach them with a cleanup callback."""
        if not active:
            return
        done, not_done = futures_wait(set(active), timeout=_LOSER_GRACE_S)
        for future in done:
            active.pop(future, None)
            try:
                outcome = future.result()
            except BaseException:
                continue
            self._discard_loser(outcome, stats)
        for future in not_done:
            active.pop(future, None)
            future.add_done_callback(_discard_detached_loser)

    def _discard_loser(self, outcome, stats: JobStats) -> None:
        """Discard a superseded attempt's output, deleting its spill files
        (attempt-numbered names mean they are referenced nowhere)."""
        if outcome is None or not outcome.ok or outcome.manifest is None:
            return
        deleted = 0
        for segment in outcome.manifest.segments:
            try:
                os.unlink(segment.path)
                deleted += 1
            except OSError:
                pass
        stats.spill_files_deleted += deleted

    # -- chaos, cleanup and recovery --------------------------------------------

    def _apply_segment_chaos(self, job: MapReduceJob, spec: _TaskSpec, manifest) -> None:
        """Corrupt or delete one of a successful map attempt's segment files,
        if a segment-level chaos rule fires for this attempt."""
        if self.fault_injector is None or manifest is None or not manifest.segments:
            return
        action = self.fault_injector.segment_action(
            job.name, spec.kind, spec.task_id, spec.attempt
        )
        if action is None:
            return
        choice = self.fault_injector.segment_choice(
            spec.task_id, spec.attempt, len(manifest.segments)
        )
        path = manifest.segments[choice].path
        if action == "delete":
            try:
                os.unlink(path)
            except OSError:
                pass
            return
        try:
            # flip the last byte — always inside the last entry's body, so
            # the per-entry CRC32 catches it at read time
            with open(path, "r+b") as stream:
                stream.seek(-1, os.SEEK_END)
                (byte,) = stream.read(1)
                stream.seek(-1, os.SEEK_END)
                stream.write(bytes((byte ^ 0xFF,)))
        except OSError:
            pass

    def _delete_attempt_spills(
        self, spec: _TaskSpec, attempt: int, stats: JobStats
    ) -> None:
        """Eagerly remove whatever spill files a failed attempt left behind —
        map segments and reduce merge-scratch runs both carry the attempt
        number in their names, so the glob can't touch live data."""
        if spec.kind == "map":
            if spec.spill is None:
                return
            directory = Path(spec.spill.directory)
        elif spec.segments:
            directory = Path(spec.segments[0].path).parent
        else:
            return
        deleted = 0
        try:
            for path in directory.glob(f"{spec.task_id}-a{attempt:02d}-*"):
                try:
                    path.unlink()
                    deleted += 1
                except OSError:
                    pass
        except OSError:
            pass
        stats.spill_files_deleted += deleted

    def _recover_lost_maps(
        self,
        job: MapReduceJob,
        lost_indices: list[int],
        map_recovery: _MapRecovery,
        retry: list[_TaskSpec],
        stats: JobStats,
    ) -> None:
        """Re-run map tasks whose segments a reducer found lost or corrupt.

        Runs between rounds (a barrier: no attempt is in flight), so it is
        safe to delete the superseded attempts' files and re-point every
        still-pending reduce spec at the fresh segments.  The re-run is
        deterministic — same split, same partitioner, same spill decisions —
        so it yields the same number of segments per reducer, and reducers
        that already consumed the old files are unaffected.
        """
        for index in lost_indices:
            respec = map_recovery.specs[index]
            old_attempts = map_recovery.attempts[index]
            rerun = self._run_phase(
                job, [respec], stats, start_attempts={index: old_attempts}
            )[0]
            map_recovery.attempts[index] = rerun.attempts
            stats.recovered_tasks += 1
            manifest = rerun.manifest
            if manifest is None:
                continue
            if respec.spill is not None:
                deleted = 0
                directory = Path(respec.spill.directory)
                for old_attempt in range(1, old_attempts + 1):
                    try:
                        for path in directory.glob(
                            f"{respec.task_id}-a{old_attempt:02d}-*"
                        ):
                            try:
                                path.unlink()
                                deleted += 1
                            except OSError:
                                pass
                    except OSError:
                        pass
                stats.spill_files_deleted += deleted
            fresh_by_reducer: dict[int, list] = {}
            for segment in manifest.segments:
                fresh_by_reducer.setdefault(segment.reducer, []).append(segment)
            for spec in retry:
                if spec.kind != "reduce" or spec.segments is None:
                    continue
                matching = sum(1 for s in spec.segments if s.task_index == index)
                if matching == 0:
                    continue
                fresh = fresh_by_reducer.get(spec.index, [])
                if matching != len(fresh):
                    raise TaskFailure(
                        f"recovered map task {respec.task_id} produced "
                        f"{len(fresh)} segment(s) for reducer {spec.index}, "
                        f"which referenced {matching}",
                        job_name=job.name,
                        task_id=respec.task_id,
                        kind="map",
                        attempts=rerun.attempts,
                    )
                cursor = 0
                patched = []
                for segment in spec.segments:
                    if segment.task_index == index:
                        patched.append(fresh[cursor])
                        cursor += 1
                    else:
                        patched.append(segment)
                spec.segments = tuple(patched)


def _cache_bytes(cache: dict[str, Any]) -> int:
    """Size of the distributed cache; unknown entries are skipped (local refs)."""
    total = 0
    for value in cache.values():
        try:
            total += estimate_bytes(value)
        except TypeError:
            continue
    return total


def _emission_records(emissions: list[tuple[Any, Any]]) -> int:
    """Logical records across a task's emissions (blocks count their rows)."""
    return sum(record_count(value) for _, value in emissions)


def _pairs_bytes(pairs: list[tuple[Any, Any]]) -> int:
    total = 0
    for key, value in pairs:
        try:
            total += estimate_bytes(key) * record_count(value) + estimate_bytes(value)
        except TypeError:
            total += 64  # opaque output objects: flat estimate
    return total
