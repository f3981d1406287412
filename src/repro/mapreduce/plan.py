"""Declarative dataflow plans over the MapReduce runtime.

The paper's joins are multi-job pipelines (PGBJ's Figure 3 chains
partitioning → grouping → kNN join) that the drivers used to hand-sequence
as imperative ``runtime.run(job, splits)`` calls.  This module turns those
pipelines into *plans*, the FlumeJava/Spark move applied to this runtime:

* a :class:`JobGraph` is a DAG of :class:`Stage` nodes.  Each stage owns a
  *builder* — a callable that receives a :class:`StageContext`, performs any
  master-side work (pivot selection, summary merging, grouping), and returns
  the stage's :class:`~repro.mapreduce.job.MapReduceJob` plus its input
  splits (named DFS artifacts or ``chain_splits`` of upstream outputs).
  Edges are data dependencies: a builder may read the
  :class:`~repro.mapreduce.runtime.JobResult` of its declared dependencies
  and nothing else.
* a :class:`PlanScheduler` executes a graph on one
  :class:`~repro.mapreduce.runtime.LocalRuntime`, topologically.  Stages
  whose dependencies are satisfied run **concurrently** (each on its own
  scheduler thread, sharing the runtime's executor and shuffle store);
  ``concurrent=False`` falls back to strict declaration order.  Either way
  every stage's result is a pure function of its inputs, so outputs,
  counters and shuffle accounting are bit-identical between the two modes —
  the scheduler only moves wall-clock.
* a :class:`PlanCache` memoizes *content-keyed* stages: a stage that
  declares a ``key`` (a hashable fingerprint of everything its job execution
  depends on) is served from the cache when an identical stage already ran —
  how a sweep reuses an unchanged plan prefix, e.g. one PGBJ partitioning
  job shared across a whole k-sweep.  Builders still run on a hit (they
  produce master-side artifacts downstream stages need); only the job
  execution is skipped, and the cached :class:`JobResult` — stats, counters
  and all — stands in bit-for-bit.

Aggregation stays deterministic: :class:`PlanRun` exposes stage executions
in *declaration* order regardless of how execution interleaved, so outcome
assembly (counters merged job by job, stats listed in submission order) is
identical to what the imperative drivers produced.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from collections.abc import Callable, Hashable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .job import MapReduceJob
from .runtime import JobResult, LocalRuntime
from .shuffle import iter_segment, write_segment
from .types import InputSplit

__all__ = [
    "JobGraph",
    "Stage",
    "StageContext",
    "StageExecution",
    "FusedOutput",
    "PlanRun",
    "PlanScheduler",
    "PlanCache",
    "PlanError",
    "StageCheckpointStore",
    "dump_job_result",
    "load_job_result",
]

#: a stage builder: master-side work + the stage's job and splits (or
#: ``None`` for a master-only stage that runs no MapReduce job)
StageBuilder = Callable[
    ["StageContext"], "tuple[MapReduceJob, Sequence[InputSplit]] | None"
]

#: scheduler threads are cheap (they block on runtime.run); this only caps
#: pathological graphs
_MAX_STAGE_WORKERS = 16


class PlanError(RuntimeError):
    """A plan was malformed or used outside its contract."""


@dataclass(frozen=True)
class Stage:
    """One node of a :class:`JobGraph`.

    ``name`` is the stable stage name (e.g. ``"pgbj/partition"``) used for
    progress, stats keying and debugging; ``deps`` are the stages whose
    results the builder may read; ``key`` (optional) is the content
    fingerprint that makes the stage's job execution cacheable — it must
    determine the built job and splits completely, or two sweeps that should
    differ would share a result.
    """

    name: str
    build: StageBuilder
    deps: tuple["Stage", ...] = ()
    key: Hashable | None = None

    def __repr__(self) -> str:  # the builder closure is noise
        return f"Stage({self.name!r}, deps={[d.name for d in self.deps]})"


class JobGraph:
    """A DAG of stages plus the resources (DFS, …) their builders close over.

    Stages are appended with :meth:`stage`; dependencies must already belong
    to the graph, which makes declaration order a valid topological order by
    construction (and exactly the order the imperative drivers ran).
    Graphs are single-execution: builders may write shared driver state, so
    build a fresh graph per run (the plan *cache* is what carries work
    across runs).
    """

    def __init__(self, name: str = "plan") -> None:
        self.name = name
        self.stages: list[Stage] = []
        self._members: set[int] = set()
        self.resources: list[Any] = []
        #: original sub-graph stage id -> renamed twin (populated by fuse)
        self._alias: dict[int, Stage] = {}

    def stage(
        self,
        name: str,
        build: StageBuilder,
        deps: Iterable[Stage] = (),
        key: Hashable | None = None,
    ) -> Stage:
        """Append a stage; returns the node for downstream ``deps`` lists."""
        deps = tuple(deps)
        for dep in deps:
            if id(dep) not in self._members:
                raise PlanError(
                    f"stage {name!r} depends on {dep.name!r}, which is not "
                    f"part of graph {self.name!r} (declare dependencies first)"
                )
        if any(existing.name == name for existing in self.stages):
            raise PlanError(f"graph {self.name!r} already has a stage named {name!r}")
        node = Stage(name=name, build=build, deps=deps, key=key)
        self.stages.append(node)
        self._members.add(id(node))
        return node

    def resource(self, resource: Any) -> Any:
        """Attach a context manager the plan's executor must hold open while
        the graph runs (a DFS holding chained intermediates, typically).
        ``None`` is accepted and ignored, matching ``JoinConfig.chain_dfs``."""
        if resource is not None:
            self.resources.append(resource)
        return resource

    @classmethod
    def fuse(cls, graphs: Sequence["JobGraph"], name: str = "fused") -> "JobGraph":
        """One graph holding every stage of ``graphs`` (stages are shared,
        not copied, so handles into the sub-graphs keep working).

        Stages of different sub-graphs have no edges between each other, so
        a concurrent scheduler overlaps whole pipelines — the multi-join
        scenario.  Colliding stage names are uniquified with a sub-graph
        prefix; assembly code should therefore capture names at plan-build
        time rather than re-reading ``stage.name`` after fusing.
        """
        fused = cls(name)
        seen: set[str] = set()
        for position, graph in enumerate(graphs):
            for node in graph.stages:
                label = node.name if node.name not in seen else f"{position}:{node.name}"
                seen.add(label)
                renamed = Stage(
                    name=label, build=node.build, deps=node.deps, key=node.key
                )
                # keep sub-graph handles valid: execution is keyed by the
                # *original* node object, which the renamed node stands for
                fused.stages.append(renamed)
                fused._members.add(id(node))
                fused._members.add(id(renamed))
                fused._alias.setdefault(id(node), renamed)
            fused.resources.extend(graph.resources)
        return fused


@dataclass(frozen=True)
class FusedOutput:
    """A builder-returned *splits* marker requesting plan-level map fusion.

    A stage whose mapper is the identity (the shared candidate-merge stages)
    may return ``(job, FusedOutput(source))`` instead of materialising its
    input through ``chain_splits``: the scheduler then feeds the ``source``
    stage's output pairs straight into the job's shuffle via
    :meth:`~repro.mapreduce.runtime.LocalRuntime.run_premapped`, skipping the
    identity map phase (and, for DFS-chained plans, a full write+read
    round-trip of the intermediate).  ``source`` must be one of the stage's
    declared dependencies.  Because reduce input ordering is defined by the
    producer's global emission order — which fusion preserves — the fused
    stage's results, counters and shuffle accounting are bit-identical to the
    unfused run.
    """

    source: Stage


@dataclass
class StageExecution:
    """What one stage produced: its job result plus master-side bookkeeping.

    ``started_s``/``finished_s`` are ``perf_counter`` stamps around the
    whole stage (builder + job), the planner's observability into where a
    plan's wall-clock went and how stages overlapped.
    """

    stage: Stage
    result: JobResult | None = None
    phases: dict[str, float] = field(default_factory=dict)
    from_cache: bool = False
    from_checkpoint: bool = False
    fused: bool = False
    started_s: float = 0.0
    finished_s: float = 0.0

    @property
    def wall_seconds(self) -> float:
        """Wall-clock the stage occupied (builder + job execution)."""
        return self.finished_s - self.started_s


class StageContext:
    """The builder-facing view of a running plan.

    Builders read dependency results through :meth:`result_of` (declared
    dependencies only — the scheduler guarantees those are complete; an
    undeclared read would race under concurrent execution, so it is an
    error), and record master-phase timings with :meth:`timed` /
    :meth:`add_phase` (stage-scoped, so fused plans never mix phases of
    different joins).
    """

    def __init__(self, run: "PlanRun", execution: StageExecution) -> None:
        self._run = run
        self._execution = execution

    def result_of(self, stage: Stage) -> JobResult:
        """The completed :class:`JobResult` of a declared dependency."""
        if all(dep is not stage for dep in self._execution.stage.deps):
            raise PlanError(
                f"stage {self._execution.stage.name!r} read "
                f"{stage.name!r} without declaring it as a dependency"
            )
        result = self._run.execution_of(stage).result
        if result is None:
            raise PlanError(f"stage {stage.name!r} ran no MapReduce job")
        return result

    def add_phase(self, name: str, seconds: float) -> None:
        """Record one master-phase duration under this stage."""
        self._execution.phases[name] = self._execution.phases.get(name, 0.0) + seconds

    @contextmanager
    def timed(self, name: str):
        """Context manager timing a master phase (``with ctx.timed("x"):``)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - started)


class PlanRun:
    """A completed (or in-flight) plan execution.

    ``executions`` is in stage *declaration* order — the deterministic
    aggregation order — regardless of how the scheduler interleaved the
    actual work.  Thread-safe: scheduler workers fill it concurrently.
    """

    def __init__(self, graph: JobGraph) -> None:
        self.graph = graph
        self._lock = threading.Lock()
        self._executions: dict[int, StageExecution] = {}
        for node in graph.stages:
            execution = StageExecution(stage=node)
            self._executions[id(node)] = execution
            original = graph._alias
            # fused graphs: the original sub-graph node resolves to the same
            # execution as its renamed twin
            for alias_id, renamed in original.items():
                if renamed is node:
                    self._executions[alias_id] = execution

    # -- builder/assembly access ------------------------------------------------

    def execution_of(self, stage: Stage) -> StageExecution:
        try:
            return self._executions[id(stage)]
        except KeyError:
            raise PlanError(f"stage {stage.name!r} is not part of this plan") from None

    def result_of(self, stage: Stage) -> JobResult:
        """The stage's :class:`JobResult` (raises for master-only stages)."""
        result = self.execution_of(stage).result
        if result is None:
            raise PlanError(f"stage {stage.name!r} produced no job result")
        return result

    @property
    def executions(self) -> list[StageExecution]:
        """All stage executions, in declaration order."""
        return [self._executions[id(node)] for node in self.graph.stages]

    def phases_of(self, stages: Iterable[Stage]) -> dict[str, float]:
        """Master phases of the given stages, merged in the given order."""
        merged: dict[str, float] = {}
        for stage in stages:
            for name, seconds in self.execution_of(stage).phases.items():
                merged[name] = merged.get(name, 0.0) + seconds
        return merged

    def cached_stage_names(self) -> list[str]:
        """Names of stages served from the plan cache, declaration order."""
        return [e.stage.name for e in self.executions if e.from_cache]

    def checkpointed_stage_names(self) -> list[str]:
        """Names of stages restored from checkpoints, declaration order."""
        return [e.stage.name for e in self.executions if e.from_checkpoint]

    def fused_stage_names(self) -> list[str]:
        """Names of stages executed premapped (map fusion), declaration order."""
        return [e.stage.name for e in self.executions if e.fused]


#: key of the meta entry, first pair in every serialized-result segment file
_RESULT_META_KEY = "__checkpoint__"


def dump_job_result(
    path: Path, result: JobResult, meta: dict[str, Any]
) -> Path | None:
    """Best-effort write of a :class:`JobResult` in the segment wire format.

    The file starts with a meta entry (``meta`` merged with the result's job
    name, reducer count, side outputs, counters and stats) followed by the
    output pairs, each tagged with ``reducer + 1`` so ``outputs_by_reducer``
    restores exactly.  Written to a temp name and atomically renamed — a kill
    mid-save never leaves a truncated file.  Returns the path, or ``None``
    when the result cannot be persisted (unpicklable values, disk errors).
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        full_meta = {
            **meta,
            "job_name": result.job_name,
            "num_reducers": (
                len(result.outputs_by_reducer)
                if result.outputs_by_reducer is not None
                else None
            ),
            "side_outputs": result.side_outputs,
            "counters": result.counters,
            "stats": result.stats,
        }
        entries: list[tuple] = [(0, 0, _RESULT_META_KEY, full_meta, 0, 0)]
        seq = 1
        if result.outputs_by_reducer is not None:
            for reducer, pairs in enumerate(result.outputs_by_reducer):
                for pair_key, value in pairs:
                    entries.append((reducer + 1, seq, pair_key, value, 0, 0))
                    seq += 1
        else:
            for pair_key, value in result.outputs:
                entries.append((1, seq, pair_key, value, 0, 0))
                seq += 1
        tmp = path.with_name(path.name + ".tmp")
        write_segment(tmp, 0, entries)
        os.replace(tmp, path)
        return path
    except Exception:
        return None


def load_job_result(path: Path, expected: dict[str, Any]) -> JobResult | None:
    """Read a :func:`dump_job_result` file back, or ``None`` on any defect.

    ``expected`` items must all match the stored meta entry — the caller's
    identity check (stage name, content-key repr) that keeps a stale or
    foreign file from standing in for a different computation.  Corruption
    (CRC mismatch, truncation, unpicklable entries, schema drift) also
    returns ``None``: the caller just recomputes.
    """
    try:
        entries = iter_segment(path)
        first = next(entries, None)
        if first is None:
            return None
        _, _, key, meta = first
        if key != _RESULT_META_KEY or not isinstance(meta, dict):
            return None
        for check, value in expected.items():
            if meta.get(check) != value:
                return None
        num_reducers = meta["num_reducers"]
        by_reducer: list[list[tuple[Any, Any]]] | None = (
            [[] for _ in range(num_reducers)] if num_reducers is not None else None
        )
        outputs: list[tuple[Any, Any]] = []
        for task, _, pair_key, value in entries:
            if by_reducer is not None:
                by_reducer[task - 1].append((pair_key, value))
            else:
                outputs.append((pair_key, value))
        if by_reducer is not None:
            outputs = [pair for per_reducer in by_reducer for pair in per_reducer]
        return JobResult(
            job_name=meta["job_name"],
            outputs=outputs,
            outputs_by_reducer=by_reducer,
            side_outputs=meta["side_outputs"],
            counters=meta["counters"],
            stats=meta["stats"],
        )
    except Exception:
        return None


class PlanCache:
    """Content-keyed memo of stage job executions, shared across plans.

    A sweep harness holds one cache and hands it to every run (via
    ``JoinConfig.plan_cache``): stages whose content key already executed are
    served their previous :class:`JobResult` verbatim — results, counters,
    stats and accounting are the original object, so a cached run is
    bit-identical to a cold one.

    Thread-safe, with **in-flight coalescing**: when several concurrently
    scheduled stages share one key (a fused sweep whose points all start
    from the same prefix), the first becomes the producer and the rest block
    until its result lands — the prefix executes exactly once, not once per
    racer.  A producer that fails clears the in-flight reservation *before*
    waking waiters, so the next waiter (or any later caller — including one
    arriving after a second failure) re-enters the loop, finds no producer,
    and takes over: an injected fault never wedges the sweep.  Entries live
    until :meth:`clear` (results are plain values — nothing to close).

    With a ``directory`` the cache is additionally **persistent**: every
    produced result is serialized in the segment wire format (one file per
    key, named by the SHA-1 of the key's ``repr`` — keys must therefore have
    process-stable reprs, which the tuple-of-str/int stage keys do) and a
    miss consults the directory before computing.  Writes are atomic
    (temp + rename) and a corrupt, truncated or foreign file is treated as a
    miss, so k-sweeps, bench reruns and service restarts reuse partitioning
    work across *processes*, not just within one.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self._lock = threading.Lock()
        self._entries: dict[Hashable, JobResult] = {}
        self._inflight: dict[Hashable, threading.Event] = {}
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_writes = 0

    def path_for(self, key: Hashable) -> Path:
        """The segment file a persistent entry for ``key`` lives in."""
        if self.directory is None:
            raise ValueError("PlanCache has no directory")
        digest = hashlib.sha1(repr(key).encode()).hexdigest()
        return self.directory / f"{digest}.plan.seg"

    def _load_disk(self, key: Hashable) -> JobResult | None:
        if self.directory is None:
            return None
        return load_job_result(self.path_for(key), {"key_repr": repr(key)})

    def _store_disk(self, key: Hashable, result: JobResult) -> None:
        if self.directory is None:
            return
        if dump_job_result(self.path_for(key), result, {"key_repr": repr(key)}):
            with self._lock:
                self.disk_writes += 1

    def compute(self, key: Hashable, produce: Callable[[], JobResult]):
        """The entry for ``key``, producing it at most once across threads.

        Returns ``(result, fresh)`` — ``fresh=False`` means the result was
        served from the cache (a memory or disk hit), possibly after waiting
        for a concurrent producer.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self.hits += 1
                    return self._entries[key], False
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    break  # this thread produces (or loads from disk)
            event.wait()  # a concurrent producer is running this key
        try:
            loaded = self._load_disk(key)
        except BaseException:
            with self._lock:
                self._inflight.pop(key).set()
            raise
        if loaded is not None:
            with self._lock:
                self._entries[key] = loaded
                self.disk_hits += 1
                self._inflight.pop(key).set()
            return loaded, False
        with self._lock:
            self.misses += 1
        try:
            result = produce()
        except BaseException:
            # clear the reservation first, then wake the waiters: the next
            # one retries the loop, finds no in-flight producer, and produces
            # itself — repeated failures just repeat this handoff, they never
            # leave the key locked
            with self._lock:
                self._inflight.pop(key).set()
            raise
        self._store_disk(key, result)
        with self._lock:
            self._entries[key] = result
            self._inflight.pop(key).set()
        return result, True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def disk_entries(self) -> int:
        """Number of persisted result files currently in the directory."""
        if self.directory is None or not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.plan.seg"))

    def stats(self) -> dict[str, int]:
        """``{"entries", "hits", "misses"}`` — stamped into bench records.

        Persistent caches additionally report ``disk_hits`` (misses served
        from the cache directory) and ``disk_writes``.
        """
        base = {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.directory is not None:
            base["disk_hits"] = self.disk_hits
            base["disk_writes"] = self.disk_writes
        return base


class StageCheckpointStore:
    """Persists completed stage results so a killed plan run can resume.

    One file per stage, written in the shuffle's segment wire format (so
    checkpoints get the same per-entry CRC32 integrity protection spilled
    shuffle data has): a meta entry — stage name, content-key repr, job
    name, counters, stats, side outputs — followed by the job's output
    pairs, tagged with their reducer so ``outputs_by_reducer`` restores
    exactly.  Files are written to a temp name and atomically renamed, so a
    kill mid-save never leaves a truncated checkpoint; a checkpoint that is
    corrupt, unreadable, or belongs to a different stage/key is silently
    ignored and the stage re-runs.  The restored :class:`JobResult` is
    bit-identical to the original — results, counters, stats, accounting —
    so resumed plan runs fingerprint-match uninterrupted ones.

    Every checkpoint is bound to a *plan identity* — a digest of the datasets
    and every config field, handed in by whoever builds the plan — which goes
    into the file name and the meta entry: a directory reused for a different
    join (another ``k``, pivot count, metric, dataset) simply finds no
    matching checkpoint and re-runs its stages, so it can never serve a stale
    answer.  Bare scheduler use leaves the identity empty: stage name +
    content key alone, for graphs the caller vouches for.
    """

    #: key of the meta entry, first in every checkpoint file
    META_KEY = _RESULT_META_KEY

    def __init__(self, directory: str | os.PathLike, identity: str = "") -> None:
        self.directory = Path(directory)
        self.identity = identity

    def path_for(self, stage: Stage) -> Path:
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", stage.name)
        digest = hashlib.sha1(
            f"{self.identity}|{stage.name}|{repr(stage.key)}".encode()
        ).hexdigest()[:12]
        return self.directory / f"{safe}-{digest}.ckpt.seg"

    def _meta(self, stage: Stage) -> dict[str, Any]:
        return {
            "plan": self.identity,
            "stage": stage.name,
            "key_repr": repr(stage.key),
        }

    def load(self, stage: Stage) -> JobResult | None:
        """The stage's checkpointed result, or ``None`` when there is none
        (missing, corrupt, or written for a different stage identity)."""
        return load_job_result(self.path_for(stage), self._meta(stage))

    def save(self, stage: Stage, result: JobResult) -> Path | None:
        """Best-effort write of one stage's result; returns the path, or
        ``None`` when the result cannot be persisted (unpicklable outputs,
        disk errors) — resume then simply re-runs the stage."""
        return dump_job_result(self.path_for(stage), result, self._meta(stage))


class PlanScheduler:
    """Executes a :class:`JobGraph` on one runtime, concurrently when it can.

    ``concurrent=True`` (the default) runs every dependency-satisfied stage
    at once, each on a scheduler thread sharing the runtime's executor and
    shuffle store — independent stages of a fused plan overlap, chains
    degrade gracefully to sequential.  ``concurrent=False`` is the escape
    hatch (CLI ``--no-plan-concurrency``): strict declaration order, exactly
    the imperative drivers' schedule.  Both modes produce bit-identical
    results, counters and shuffle accounting; tests enforce it.

    ``checkpoint_dir`` (CLI ``--checkpoint-dir``) turns on stage-level
    checkpointing via a :class:`StageCheckpointStore`: every completed
    stage's result is persisted, and a re-run of the same plan restores
    completed stages instead of re-executing their jobs — builders still
    run (they produce master-side artifacts), only the MapReduce work is
    skipped.  A killed run therefore resumes from its last finished stage,
    with results bit-identical to an uninterrupted run.
    ``checkpoint_identity`` binds the checkpoints to one plan identity (see
    :class:`StageCheckpointStore`); the join registry always passes one.
    """

    def __init__(
        self,
        runtime: LocalRuntime,
        cache: PlanCache | None = None,
        concurrent: bool = True,
        checkpoint_dir: str | os.PathLike | None = None,
        checkpoint_identity: str = "",
    ) -> None:
        self.runtime = runtime
        self.cache = cache
        self.concurrent = concurrent
        self.checkpoints = (
            StageCheckpointStore(checkpoint_dir, checkpoint_identity)
            if checkpoint_dir
            else None
        )

    def execute(self, graph: JobGraph) -> PlanRun:
        """Run every stage of the graph; returns the completed plan run."""
        run = PlanRun(graph)
        if not graph.stages:
            return run
        if not self.concurrent or len(graph.stages) == 1:
            for node in graph.stages:  # declaration order is topological
                self._run_stage(run, node)
            return run
        self._execute_concurrent(run, graph)
        return run

    # -- internals --------------------------------------------------------------

    def _execute_concurrent(self, run: PlanRun, graph: JobGraph) -> None:
        remaining = {id(node): len(node.deps) for node in graph.stages}
        dependents: dict[int, list[Stage]] = {id(node): [] for node in graph.stages}
        for node in graph.stages:
            for dep in node.deps:
                dependents[id(run.execution_of(dep).stage)].append(node)
        ready = [node for node in graph.stages if remaining[id(node)] == 0]
        with ThreadPoolExecutor(
            max_workers=min(len(graph.stages), _MAX_STAGE_WORKERS),
            thread_name_prefix=f"plan-{graph.name}",
        ) as pool:
            futures = {
                pool.submit(self._run_stage, run, node): node for node in ready
            }
            failure: BaseException | None = None
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    node = futures.pop(future)
                    error = future.exception()
                    if error is not None:
                        failure = failure or error
                        continue
                    if failure is not None:
                        continue  # finish in-flight stages, submit nothing new
                    for dependent in dependents[id(node)]:
                        remaining[id(dependent)] -= 1
                        if remaining[id(dependent)] == 0:
                            futures[pool.submit(self._run_stage, run, dependent)] = (
                                dependent
                            )
            if failure is not None:
                raise failure

    def _run_stage(self, run: PlanRun, node: Stage) -> None:
        execution = run.execution_of(node)
        execution.started_s = time.perf_counter()
        built = node.build(StageContext(run, execution))
        if built is not None:
            job, splits = built
            restored = (
                self.checkpoints.load(node) if self.checkpoints is not None else None
            )
            if restored is not None:
                execution.result = restored
                execution.from_checkpoint = True
                execution.finished_s = time.perf_counter()
                return
            produce = self._producer(run, node, execution, job, splits)
            if self.cache is not None and node.key is not None:
                # coalesced: concurrent stages sharing this key (a fused
                # sweep's common prefix) execute the job exactly once
                result, fresh = self.cache.compute(node.key, produce)
                execution.from_cache = not fresh
            else:
                result = produce()
            execution.result = result
            if self.checkpoints is not None:
                # cached results are saved too: resume must not depend on
                # the (in-process) plan cache being warm
                self.checkpoints.save(node, result)
        execution.finished_s = time.perf_counter()

    def _producer(
        self,
        run: PlanRun,
        node: Stage,
        execution: StageExecution,
        job: MapReduceJob,
        splits: Sequence[InputSplit] | FusedOutput,
    ) -> Callable[[], JobResult]:
        """The thunk that executes the stage's job — plain or premapped."""
        if not isinstance(splits, FusedOutput):
            return lambda: self.runtime.run(job, splits)
        source = splits.source
        if all(dep is not source for dep in node.deps):
            raise PlanError(
                f"stage {node.name!r} fuses over {source.name!r} without "
                "declaring it as a dependency"
            )
        pairs = run.result_of(source).outputs
        execution.fused = True
        return lambda: self.runtime.run_premapped(job, pairs)
