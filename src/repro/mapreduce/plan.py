"""Declarative dataflow plans over the MapReduce runtime.

The paper's joins are multi-job pipelines (PGBJ's Figure 3 chains
partitioning → grouping → kNN join) that the drivers used to hand-sequence
as imperative ``runtime.run(job, splits)`` calls.  This module turns those
pipelines into *plans*, the FlumeJava/Spark move applied to this runtime:

* a :class:`JobGraph` is a chain (in general a DAG) of :class:`Stage`
  nodes.  Each stage owns a *builder* — a callable that receives a
  :class:`StageContext`, performs any master-side work (pivot selection,
  summary merging, grouping), and returns the stage's
  :class:`~repro.mapreduce.job.MapReduceJob` plus its input splits (named
  DFS artifacts or ``chain_splits`` of upstream outputs).  Edges are data
  dependencies: a builder may read the
  :class:`~repro.mapreduce.runtime.JobResult` of its declared dependencies
  and nothing else.
* a :class:`PlanScheduler` executes a graph on one
  :class:`~repro.mapreduce.runtime.LocalRuntime`, stage by stage in
  declaration order (a topological order by construction).
* a :class:`PlanCache` memoizes stage job executions, in memory and — with
  a directory — on disk.  A stage is stored under its content ``key`` when
  it declares one (a hashable fingerprint of everything its job execution
  depends on: how a sweep reuses an unchanged plan prefix, e.g. one PGBJ
  partitioning job shared across a whole k-sweep), and otherwise under
  ``(plan identity, stage name)`` when the scheduler was handed an identity
  (how a killed join resumes from its last finished stage).  Builders still
  run on a hit (they produce master-side artifacts downstream stages need);
  only the job execution is skipped, and the cached :class:`JobResult` —
  stats, counters and all — stands in bit-for-bit.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections.abc import Callable, Hashable, Iterable, Sequence
from contextlib import contextmanager, suppress
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
    "PlanRun",
    "PlanScheduler",
    "PlanCache",
    "PlanError",
    "dump_job_result",
    "load_job_result",
]

#: a stage builder: master-side work + the stage's job and splits (or
#: ``None`` for a master-only stage that runs no MapReduce job)
StageBuilder = Callable[
    ["StageContext"], tuple[MapReduceJob, Sequence[InputSplit]] | None
]


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


@dataclass
class StageExecution:
    """What one stage produced: its job result plus master-side bookkeeping.

    ``started_s``/``finished_s`` are ``perf_counter`` stamps around the
    whole stage (builder + job), the planner's observability into where a
    plan's wall-clock went.
    """

    stage: Stage
    result: JobResult | None = None
    phases: dict[str, float] = field(default_factory=dict)
    from_cache: bool = False
    started_s: float = 0.0
    finished_s: float = 0.0

    @property
    def wall_seconds(self) -> float:
        """Wall-clock the stage occupied (builder + job execution)."""
        return self.finished_s - self.started_s


class StageContext:
    """The builder-facing view of a running plan.

    Builders read dependency results through :meth:`result_of` (declared
    dependencies only — an undeclared read is an error, so a graph's edges
    always say what its stages consume), and record master-phase timings
    with :meth:`timed` / :meth:`add_phase` (stage-scoped).
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
    """A completed (or in-flight) plan execution; ``executions`` is in stage
    declaration order, the deterministic aggregation order."""

    def __init__(self, graph: JobGraph) -> None:
        self.graph = graph
        self._executions = {id(node): StageExecution(stage=node) for node in graph.stages}

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
    mid-save never leaves a truncated file, and a failed write removes its
    temp file.  Returns the path, or ``None`` when the result cannot be
    persisted (unpicklable values, disk errors).
    """
    tmp = path.with_name(path.name + ".tmp")
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
        write_segment(tmp, 0, entries)
        os.replace(tmp, path)
        return path
    except Exception:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        return None


def load_job_result(path: Path, expected: dict[str, Any]) -> JobResult | None:
    """Read a :func:`dump_job_result` file back, or ``None`` on any defect.

    ``expected`` items must all match the stored meta entry — the caller's
    identity check (the key's repr) that keeps a stale or foreign file from
    standing in for a different computation.  Corruption (CRC mismatch,
    truncation, unpicklable entries, schema drift) also returns ``None``:
    the caller just recomputes.
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
    """Memo of stage job executions, shared across plans — the one store.

    A sweep harness holds one cache and hands it to every run (via
    ``JoinConfig.plan_cache``): stages whose key already executed are served
    their previous :class:`JobResult` verbatim — results, counters, stats
    and accounting are the original object, so a cached run is bit-identical
    to a cold one.  The entry dict is guarded by a lock, so joins running on
    several threads may share one cache; two of them missing on one key
    both produce it, with equal results.  Entries live until :meth:`clear`
    (results are plain values — nothing to close).

    With a ``directory`` the cache is additionally **persistent**: every
    produced result is serialized in the segment wire format (one file per
    key, named by the SHA-1 of the key's ``repr`` — keys must therefore have
    process-stable reprs, which the tuple-of-str/int stage keys do) and a
    miss consults the directory before computing.  Writes are atomic
    (temp + rename; a failed write leaves no file) and a corrupt, truncated
    or foreign file is treated as a miss, so k-sweeps, bench reruns and
    restarts of a killed join reuse finished stages across *processes*, not
    just within one.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self._lock = threading.Lock()
        self._entries: dict[Hashable, JobResult] = {}
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
        """The entry for ``key``: from memory, else from disk, else produced
        (and stored).

        Returns ``(result, fresh)`` — ``fresh=False`` means the result was
        served from the cache (a memory or disk hit).
        """
        with self._lock:
            if key in self._entries:
                self.hits += 1
                return self._entries[key], False
        loaded = self._load_disk(key)
        if loaded is not None:
            with self._lock:
                self._entries[key] = loaded
                self.disk_hits += 1
            return loaded, False
        with self._lock:
            self.misses += 1
        result = produce()
        self._store_disk(key, result)
        with self._lock:
            self._entries[key] = result
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


class PlanScheduler:
    """Executes a :class:`JobGraph` on one runtime, in declaration order.

    With a ``cache`` every stage that runs a job is looked up and stored:
    under its content ``key`` when it declares one, otherwise under
    ``(identity, stage name)`` when ``identity`` is set.  The join registry
    passes the plan's :func:`~repro.joins.registry.plan_identity` — a digest
    of the datasets, the code version and every config field — so a
    persistent cache directory reused for a different join finds no entry
    for its stages and runs them, and a re-run of the *same* join (after a
    kill, say) is served every finished stage from disk.  Without an
    identity a keyless stage is never cached: nothing binds its result to
    the inputs it came from.

    ``concurrent`` and ``checkpoint_dir`` are owed to the frozen benchmark
    harness (``benchmarks/e2e/layers.py`` passes
    ``concurrent=config.plan_concurrency, checkpoint_dir=None``); stages
    always run in order and a checkpoint is a plan-cache entry.  Delete both
    when that harness is next re-frozen.
    """

    def __init__(
        self,
        runtime: LocalRuntime,
        cache: PlanCache | None = None,
        identity: str = "",
        *,
        concurrent: bool = True,
        checkpoint_dir: None = None,
    ) -> None:
        if checkpoint_dir is not None:
            raise ValueError(
                "checkpoint_dir is gone: a PlanCache with a directory resumes a plan"
            )
        self.runtime = runtime
        self.cache = cache
        self.identity = identity

    def execute(self, graph: JobGraph) -> PlanRun:
        """Run every stage of the graph; returns the completed plan run."""
        run = PlanRun(graph)
        for node in graph.stages:  # declaration order is topological
            self._run_stage(run, node)
        return run

    def _cache_key(self, node: Stage) -> Hashable | None:
        if node.key is not None:
            return node.key
        return (self.identity, node.name) if self.identity else None

    def _run_stage(self, run: PlanRun, node: Stage) -> None:
        execution = run.execution_of(node)
        execution.started_s = time.perf_counter()
        built = node.build(StageContext(run, execution))
        if built is not None:
            job, splits = built
            key = self._cache_key(node)
            if self.cache is None or key is None:
                execution.result = self.runtime.run(job, splits)
            else:
                execution.result, fresh = self.cache.compute(
                    key, lambda: self.runtime.run(job, splits)
                )
                execution.from_cache = not fresh
        execution.finished_s = time.perf_counter()
