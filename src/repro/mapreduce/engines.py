"""Pluggable task-execution backends for the MapReduce runtime.

The scheduler in :mod:`repro.mapreduce.runtime` decides *what* runs (splits →
map tasks → combine → shuffle → reduce tasks, retries, accounting); an
:class:`Executor` decides *how* a batch of independent task attempts runs:

* ``serial`` — in-process, one task at a time; bit-for-bit the historical
  behavior and the default everywhere.
* ``threads-pooled`` — a :class:`~concurrent.futures.ThreadPoolExecutor`;
  wins when task kernels spend their time in numpy (which releases the GIL),
  loses on pure-Python tasks.
* ``processes-pooled`` — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  true parallelism for pure-Python work at the cost of pickling the job, task
  payloads and results across process boundaries.  Requires picklable
  mapper/reducer factories (module-level classes) and cache contents.

What crosses a worker boundary is array-shaped in both directions, and the
engine layer needs no special handling for any of it — payloads and results
are just values:

* map payloads: the first job's splits are row *slices* of the datasets'
  arrays (:class:`~repro.mapreduce.splits.DatasetRows`: three arrays per
  dataset touched; the records are built inside the map task), chained
  splits carry the producer's blocks or a segment path;
* map results, in-memory shuffle: one ``RecordBlock`` per key per task — the
  worker merges each key's run of blocks before returning
  (:func:`~repro.mapreduce.shuffle.coalesce_emissions`) — so a reduce
  payload holds at most one value per (map task, key);
* map results, ``spill`` shuffle: a tiny segment **manifest** (paths +
  counters); the data goes to sorted segment files written *inside the
  worker* (one entry per key per flush), reduce workers receive paths and
  stream-merge from disk, and the shared local filesystem is the data plane.
  A future distributed executor replaces that filesystem with segment
  fetches while keeping this exact manifest contract;
* reduce results stay row-shaped (one ``(r_id, (ids, dists))`` pair per R
  object).

All backends receive the same ``(fn, shared, payloads)`` batch through one
dispatch protocol: :meth:`Executor.submit_batch` hands back one future per
payload (or ``None`` when the batch should simply run inline), and
:meth:`Executor.run_tasks` — defined once, on the base class — gathers those
futures **in payload order**; the scheduler relies on that ordering to keep
outputs, counters and shuffle accounting identical across engines.
Exceptions raised by ``fn`` propagate to the caller unchanged (the scheduler
handles :class:`~repro.mapreduce.runtime.TaskFailure` retries itself by
receiving failure *values*, never exceptions).

The pooled backends create their pool once, lazily, and reuse it across every
batch until :meth:`Executor.close` — the paper's joins run pivot selection →
partitioning → join as a sequence of jobs, so start-up amortizes across the
whole driver run.  Persistence makes lifecycle explicit: every executor is a
context manager with an idempotent ``close()``, and
:class:`~repro.mapreduce.runtime.LocalRuntime` closes the executors it owns.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from typing import Any

__all__ = [
    "Executor",
    "TaskBatch",
    "SerialExecutor",
    "PersistentThreadExecutor",
    "PersistentProcessExecutor",
    "get_executor",
    "available_engines",
    "DEFAULT_ENGINE",
    "WORKER_LOSS_ERRORS",
]

#: the engine every config and runtime falls back to
DEFAULT_ENGINE = "serial"

#: exceptions that mean "the engine lost workers", not "the task failed": a
#: dead worker poisons the pool, a timed-out priming round poisons the barrier
WORKER_LOSS_ERRORS = (BrokenExecutor, threading.BrokenBarrierError)


class TaskBatch:
    """Futures for one dispatched batch, plus a late-submission hook.

    Returned by :meth:`Executor.submit_batch`: ``futures`` align with the
    submitted payloads, :meth:`submit` adds one more payload to the same
    batch (how the scheduler launches a speculative duplicate attempt while
    the batch is in flight), and :meth:`close` releases whatever the batch
    holds — without waiting for stragglers, so an abandoned loser attempt
    never blocks the scheduler.
    """

    def __init__(self, futures, submit, close=None) -> None:
        self.futures = list(futures)
        self._submit = submit
        self._close = close

    def submit(self, payload):
        """Submit one more payload; returns its future."""
        return self._submit(payload)

    def close(self) -> None:
        if self._close is not None:
            self._close()


class Executor:
    """Strategy for executing one batch of independent task attempts.

    Executors have an explicit lifecycle: :meth:`close` releases whatever the
    backend holds (worker pools, shipped state) and is idempotent; running a
    batch on a closed executor raises ``RuntimeError``.  Every executor is a
    context manager (``with get_executor("processes-pooled") as ex: ...``).
    A backend implements :meth:`submit_batch`; everything else is shared.
    """

    #: registry name, surfaced in configs, CLI flags and bench records
    name: str = "abstract"

    #: set by :meth:`close`; batches are rejected afterwards
    closed: bool = False

    #: True when task attempts run in separate worker *processes* — the
    #: engines where a chaos "kill" can really terminate a worker (and where
    #: the scheduler must expect broken pools); elsewhere kill degrades to a
    #: plain crash
    process_based: bool = False

    def run_tasks(
        self,
        fn: Callable[[Any, Any], Any],
        shared: Any,
        payloads: Sequence[Any],
    ) -> list[Any]:
        """Apply ``fn(shared, payload)`` to every payload, in payload order.

        ``shared`` is batch-constant state (the job spec): backends may ship
        it to workers once instead of once per payload.  A lost worker
        surfaces as ``BrokenExecutor`` after the backend has dropped its
        broken pool, so the next batch starts on a fresh one.
        """
        self._check_open()
        batch = self.submit_batch(fn, shared, payloads)
        if batch is None:
            return [fn(shared, payload) for payload in payloads]
        try:
            return [future.result() for future in batch.futures]
        except WORKER_LOSS_ERRORS:
            self.handle_broken()
            raise
        finally:
            batch.close()

    def submit_batch(
        self,
        fn: Callable[[Any, Any], Any],
        shared: Any,
        payloads: Sequence[Any],
    ) -> "TaskBatch | None":
        """Dispatch one batch as a future per payload, or ``None`` to run it
        inline.

        The one dispatch protocol: :meth:`run_tasks` gathers the futures as a
        barrier, while the scheduler consumes them directly when it wants
        per-task completion events (soft deadlines and speculative duplicate
        attempts need to observe tasks finishing one by one).  Backends
        without real concurrency for this batch (serial, a single worker, a
        single payload) return ``None``.
        """
        return None

    def handle_broken(self) -> None:
        """Recover backend state after a worker loss surfaced via a future.

        Called by the scheduler when a future from :meth:`submit_batch`
        raises ``BrokenExecutor``: the process pool drops (and blacklists a
        slot of) its broken pool so the next batch starts fresh.  The
        default is a no-op — threads do not die under a task.
        """

    def close(self) -> None:
        """Release backend resources; safe to call more than once."""
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(f"executor {self.name!r} is closed")

    def __enter__(self) -> "Executor":
        self._check_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _resolve_workers(max_workers: int | None) -> int:
    """Worker count: explicit setting, else one per available CPU."""
    if max_workers is None:
        return os.cpu_count() or 1
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    return max_workers


class SerialExecutor(Executor):
    """Deterministic in-process execution — the historical LocalRuntime."""

    name = "serial"

    def __init__(self, max_workers: int | None = None) -> None:
        # accepted for interface uniformity; serial execution ignores it
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")


class PersistentThreadExecutor(Executor):
    """Thread pool created once and reused across batches, phases and jobs.

    Threads share the interpreter, so nothing needs shipping — persistence
    only saves pool start-up, and gives thread-friendly workloads the same
    warm-pool behavior as the process engine.
    """

    name = "threads-pooled"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = _resolve_workers(max_workers)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()  # guards lazy creation vs close

    def submit_batch(self, fn, shared, payloads):
        self._check_open()
        if len(payloads) <= 1 or self.max_workers == 1:
            return None
        pool = self._ensure_pool()
        futures = [pool.submit(fn, shared, payload) for payload in payloads]
        # no close: the pool persists across batches by design
        return TaskBatch(
            futures, submit=lambda payload: pool.submit(fn, shared, payload)
        )

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            self.closed = True
        if pool is not None:
            pool.shutdown(wait=True)


#: how many distinct jobs' shared state a pooled worker keeps resident at
#: once.  One would re-ship on every alternation when a *plan* interleaves
#: batches of concurrent stages (stage A, stage B, stage A, ...); a small
#: cache makes interleaving free while bounding worker memory.  Parent and
#: worker both evict the lowest generation, so their views stay aligned.
_MAX_RESIDENT_JOBS = 4

#: worker-side generation-keyed slots for resident jobs' shared state —
#: installed by the per-job priming round, reused by every task of those
#: jobs the worker executes
_POOL_SLOTS: dict[int, Any] = {}

#: worker-side barrier shared by the pool (installed via the pool initializer,
#: i.e. by inheritance — sync primitives cannot travel through the task queue)
_INSTALL_BARRIER: Any = None

#: priming must not hang forever if a worker is wedged; generous upper bound
_INSTALL_TIMEOUT_S = 120.0


def _pooled_worker_init(barrier: Any) -> None:
    global _INSTALL_BARRIER
    _INSTALL_BARRIER = barrier


def _install_shared(generation: int, blob: bytes, evict: tuple = ()) -> None:
    """Priming task: one per worker per job, gated by the pool barrier.

    Every worker that picks up a priming task blocks on the barrier until
    *all* workers hold one — which is what guarantees each worker executes
    exactly one install (a worker cannot finish its install and steal a
    second while others are still empty-handed).  Installs land in a small
    generation-keyed slot cache; evictions are parent-directed (the
    ``evict`` list), never local — the parent alone knows which generations
    still have tasks in flight, so only it can evict safely.
    """
    _INSTALL_BARRIER.wait(timeout=_INSTALL_TIMEOUT_S)
    for stale in evict:
        _POOL_SLOTS.pop(stale, None)
    _POOL_SLOTS[generation] = pickle.loads(blob)


def _pooled_call(fn: Callable[[Any, Any], Any], generation: int, payload: Any) -> Any:
    try:
        shared = _POOL_SLOTS[generation]
    except KeyError:
        raise RuntimeError(
            f"pooled worker holds job generations {sorted(_POOL_SLOTS)}, "
            f"task expects {generation}; priming round was skipped or lost"
        ) from None
    return fn(shared, payload)


class PersistentProcessExecutor(Executor):
    """Process pool created once and reused across batches, phases and jobs.

    A pool per batch would pay worker spawn *and* a pickled copy of the job
    spec per worker on **every** batch.  This backend keeps the pool alive
    and ships the spec once per worker per *job*: the parent
    pickles the shared state a single time when a new job object arrives
    (identity change), assigns it a generation, and runs a barrier-gated
    *priming round* — one install task per worker — that stores the blob in
    a generation-keyed worker slot.  Ordinary tasks then carry only the
    generation tag, so retry rounds and the reduce phase of the same job
    ship nothing but payloads.

    Up to ``_MAX_RESIDENT_JOBS`` jobs stay shipped at once: a plan scheduler
    running independent stages concurrently interleaves batches of
    *different* jobs on one executor, and alternation must not re-ship the
    specs batch by batch.  The parent keeps (generation, blob, job) rows per
    live job identity and the workers a matching generation-keyed slot
    cache; both evict the lowest generation, so their views agree.

    If a worker dies (OOM kill, native crash), the standard library marks
    the whole pool broken; the executor then drops its cached pool so the
    *next* batch builds a fresh one and re-primes.  The failing batch itself
    still raises ``BrokenExecutor``.  *Repeated* breaks additionally
    blacklist worker slots: after the first break every further
    break shrinks the next pool by one slot (never below one) — the local
    stand-in for taking a flaky host out of rotation.
    """

    name = "processes-pooled"
    process_based = True

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = _resolve_workers(max_workers)
        self._pool: ProcessPoolExecutor | None = None
        self._barrier: Any = None
        self._generation = 0  # last assigned generation
        self._pool_breaks = 0  # lifetime broken-pool count (drives blacklisting)
        self._pool_slots = self.max_workers  # workers in the current pool
        #: resident jobs: id(shared) -> (generation, blob, shared); the
        #: shared ref both pins the id and detects identity reuse
        self._jobs: dict[int, tuple[int, bytes, Any]] = {}
        self._installed: set[int] = set()  # generations primed into the pool
        #: generation -> count of its submit_batch futures still in flight;
        #: a generation with live futures is pinned against eviction.  Its
        #: own lock, not ``_lock``: decrements run on the pool's callback
        #: thread, which ``shutdown(wait=True)`` under ``_lock`` waits for —
        #: sharing the main lock would deadlock a pool reset
        self._inflight: dict[int, int] = {}
        self._inflight_lock = threading.Lock()
        #: evictions decided by the parent but not yet delivered to workers
        #: (they ride along with the next priming round)
        self._worker_evictions: list[int] = []
        #: submissions are atomic: generation bookkeeping, priming and the
        #: pool itself are one shared state, so concurrent runtimes sharing
        #: this executor (JoinConfig.shared_executor) take turns task by task
        self._lock = threading.Lock()

    @property
    def blacklisted_slots(self) -> int:
        """Worker slots withheld from new pools after repeated breaks."""
        return min(self.max_workers - 1, max(0, self._pool_breaks - 1))

    @property
    def worker_slots(self) -> int:
        """Workers the next (or current) pool runs with."""
        return self.max_workers - self.blacklisted_slots

    def submit_batch(self, fn, shared, payloads):
        self._check_open()
        if len(payloads) <= 1 or self.max_workers == 1:
            return None

        def submit_one(payload):
            # per-submission locking (not one lock across the whole batch):
            # the scheduler submits speculative duplicates while the batch
            # is in flight, and a concurrent stage may have re-shipped jobs
            # in between — re-ensuring pool + priming under the lock keeps
            # both safe, and the in-flight pin keeps this generation
            # resident in the workers until the future resolves
            with self._lock:
                generation = self._assign_generation(shared)
                pool = self._ensure_pool()
                self._ensure_primed(pool, generation)
                future = pool.submit(_pooled_call, fn, generation, payload)
                with self._inflight_lock:
                    self._inflight[generation] = self._inflight.get(generation, 0) + 1
            future.add_done_callback(partial(self._release_generation, generation))
            return future

        try:
            futures = [submit_one(payload) for payload in payloads]
        except WORKER_LOSS_ERRORS:
            # neither a broken pool nor a broken barrier self-heals: drop both
            # so the next batch (or join sharing this executor) starts fresh
            self.handle_broken()
            raise
        # no close: the pool persists across batches by design
        return TaskBatch(futures, submit=submit_one)

    def handle_broken(self) -> None:
        with self._lock:
            self._pool_breaks += 1
            self._reset_pool()

    def _release_generation(self, generation: int, _future: Any) -> None:
        """Future done-callback: unpin the generation once nothing of its
        batch is in flight (runs on the pool's callback thread)."""
        with self._inflight_lock:
            count = self._inflight.get(generation, 0) - 1
            if count > 0:
                self._inflight[generation] = count
            else:
                self._inflight.pop(generation, None)

    def _assign_generation(self, shared: Any) -> int:
        """The generation for this job, pickling it only on first sight."""
        row = self._jobs.get(id(shared))
        if row is not None and row[2] is shared:
            return row[0]
        self._generation += 1
        blob = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
        self._jobs[id(shared)] = (self._generation, blob, shared)
        # evict oldest first, but never a generation with futures in flight —
        # the cache may transiently exceed its bound rather than yank shared
        # state out from under a running task
        evictable = sorted(
            (generation, key)
            for key, (generation, _, _) in self._jobs.items()
            if generation != self._generation and not self._inflight.get(generation)
        )
        while len(self._jobs) > _MAX_RESIDENT_JOBS and evictable:
            generation, key = evictable.pop(0)
            del self._jobs[key]
            self._installed.discard(generation)
            self._worker_evictions.append(generation)
        return self._generation

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            slots = self.worker_slots  # blacklisting shrinks rebuilt pools
            self._barrier = multiprocessing.get_context().Barrier(slots)
            self._pool = ProcessPoolExecutor(
                max_workers=slots,
                initializer=_pooled_worker_init,
                initargs=(self._barrier,),
            )
            self._pool_slots = slots
            self._installed = set()
        return self._pool

    def _ensure_primed(self, pool: ProcessPoolExecutor, generation: int) -> None:
        """Ship this job's blob to every worker, exactly once each."""
        if generation in self._installed:
            return
        blob = next(
            row[1] for row in self._jobs.values() if row[0] == generation
        )
        evict = tuple(self._worker_evictions)
        futures = [
            pool.submit(_install_shared, generation, blob, evict)
            for _ in range(self._pool_slots)
        ]
        for future in futures:
            future.result()
        self._worker_evictions.clear()
        self._installed.add(generation)

    def _reset_pool(self) -> None:
        pool, self._pool = self._pool, None
        self._barrier = None
        self._installed = set()
        # a fresh pool has empty worker slots: pending evictions are moot,
        # and in-flight futures of the dead pool are resolving as broken
        self._worker_evictions.clear()
        with self._inflight_lock:
            self._inflight.clear()
        if pool is not None:
            pool.shutdown(wait=True)

    def close(self) -> None:
        with self._lock:
            self._reset_pool()
            self.closed = True
            self._jobs = {}


#: engine name -> executor class; later PRs (async, distributed) register here
ENGINES: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    PersistentThreadExecutor.name: PersistentThreadExecutor,
    PersistentProcessExecutor.name: PersistentProcessExecutor,
}


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted (``processes-pooled``, ``serial``, ...)."""
    return tuple(sorted(ENGINES))


def get_executor(engine: str = DEFAULT_ENGINE, max_workers: int | None = None) -> Executor:
    """Resolve an engine name into a ready executor instance."""
    try:
        executor_class = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; available: {', '.join(available_engines())}"
        ) from None
    return executor_class(max_workers=max_workers)
