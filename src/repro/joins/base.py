"""Shared join configuration, input boundary check and outcome types.

Every algorithm (PGBJ, PBJ, H-BRJ, broadcast) consumes two
:class:`~repro.core.dataset.Dataset` objects and produces a
:class:`JoinOutcome`: the exact join result plus the three measurements the
paper's evaluation reports — running time (via the cluster model),
computation selectivity (Equation 13) and shuffling cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.dataset import Dataset
from repro.core.result import KnnJoinResult
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.counters import Counters
from repro.mapreduce.engines import DEFAULT_ENGINE, Executor, available_engines
from repro.mapreduce.faults import ChaosPlan
from repro.mapreduce.hdfs import DistributedFileSystem
from repro.mapreduce.plan import PlanCache
from repro.mapreduce.runtime import LocalRuntime
from repro.mapreduce.stats import JobStats

__all__ = [
    "InvalidJoinInput",
    "JoinConfig",
    "PgbjConfig",
    "BlockJoinConfig",
    "JoinOutcome",
    "StageStats",
]


class InvalidJoinInput(ValueError):
    """Datasets no join can process — refused before any stage is planned."""


def check_join_inputs(r: Dataset, s: Dataset, k: int | None = None) -> None:
    """The one boundary check, run once per planned join before any stage is
    built.  Refuses an empty R or S, non-finite coordinates (they silently
    falsify every pruning comparison), an R/S width mismatch (it would
    surface deep in a kernel) and — for the kNN joins, which pass their
    ``k`` — ``k > |S|``."""
    for side, dataset in (("R", r), ("S", s)):
        if len(dataset) == 0:
            raise InvalidJoinInput(
                f"{side} ({dataset.name!r}) is empty; a join needs non-empty R and S"
            )
        finite = np.isfinite(dataset.points)
        if not finite.all():
            bad = np.flatnonzero(~finite.all(axis=1))
            raise InvalidJoinInput(
                f"{side} ({dataset.name!r}) has {bad.size} object(s) with non-finite "
                f"coordinates, first id {int(dataset.ids[bad[0]])}"
            )
    if r.dimensions != s.dimensions:
        raise InvalidJoinInput(f"dimension mismatch: R has {r.dimensions}, S has {s.dimensions}")
    if k is not None and k > len(s):
        raise InvalidJoinInput(
            f"k={k} exceeds |S|={len(s)}; the paper assumes k <= |S| "
            "(otherwise the join degrades to a cross join)"
        )


#: counter group/name used by every task that computes object distances
PAIRS_GROUP = "selectivity"
PAIRS_NAME = "distance_pairs"
REPLICA_GROUP = "shuffle"
REPLICA_NAME = "s_replicas"


@dataclass
class JoinConfig:
    """Parameters shared by all join algorithms.

    ``num_reducers`` is ``N`` in the paper — the cluster runs one reduce task
    per node, so this is also the modelled node count of the join job.

    ``engine`` selects the execution backend every MapReduce job of the join
    runs on (``serial``, or ``threads-pooled`` / ``processes-pooled``, which
    keep one warm worker pool across every phase, retry round and job of the
    run); ``max_workers`` sizes the parallel pools.  All engines produce
    bit-identical results — they differ only in wall-clock.

    ``memory_budget`` switches every MapReduce job of the join to the
    out-of-core ``spill`` shuffle backend: each map task buffers at most that
    many (estimated) bytes of output before writing a sorted segment run to
    disk, and reducers stream a k-way external merge instead of materialized
    groups.  ``spill_dir`` hosts the segment files (default: system temp);
    job-chaining intermediates written to the modelled DFS (via
    :meth:`make_dfs`) spill to the same place.  Results, ``pairs_computed``
    and shuffle records/bytes are bit-identical to the in-memory default —
    only where the data lives changes.

    ``shared_executor`` (optional, not part of the value of the config)
    injects a ready :class:`~repro.mapreduce.engines.Executor` every runtime
    this config makes will reuse — the way a multi-join pipeline keeps one
    persistent pool warm across *driver runs*.  The caller owns its
    lifecycle; drivers close only runtimes whose executor they created.
    Like every injected-resource field it is carried *by reference* through
    :meth:`with_changes` (``dataclasses.replace`` re-passes the same object,
    it never copies it), so a sweep of derived configs shares one pool —
    and must close it exactly once, itself, when the sweep ends.

    ``plan_concurrency`` lets the :class:`~repro.mapreduce.plan.PlanScheduler`
    run independent stages of the join's :class:`~repro.mapreduce.plan.JobGraph`
    concurrently (the default; ``False`` is the ``--no-plan-concurrency``
    escape hatch forcing strict declaration order).  Both settings produce
    bit-identical results, counters and shuffle accounting.

    ``plan_cache`` (optional, injected like ``shared_executor`` and likewise
    carried by reference across :meth:`with_changes`) memoizes content-keyed
    plan stages across runs: a sweep holding one
    :class:`~repro.mapreduce.plan.PlanCache` re-executes only the stages
    whose inputs changed — e.g. one PGBJ partitioning job shared by a whole
    k-sweep.

    ``kernel_provider`` selects the reducer-side kernel implementation
    (:mod:`repro.joins.kernel_providers`): ``numpy`` (the oracle), ``numba``
    (JIT-compiled; transparent numpy fallback when the library is missing)
    or the default ``auto`` (per call by batch shape).  Every provider
    produces bit-identical results, ``pairs_computed`` and shuffle
    accounting — the choice only moves wall-clock.

    ``spill_codec`` compresses spill-segment value payloads on disk
    (``none`` or ``zlib``); ``zlib`` implies the out-of-core shuffle backend.
    Accounted shuffle bytes stay the *uncompressed* sizes, so accounting is
    bit-identical to the in-memory oracle — only the file bytes shrink.

    ``chaos`` (optional, injected by reference like ``shared_executor``)
    hands every runtime this config makes a seeded
    :class:`~repro.mapreduce.faults.ChaosPlan` — the structured fault
    injector behind the ``--chaos-spec``/``--chaos-seed`` CLI flags and the
    ``REPRO_CHAOS`` environment variable.  Results, counters and shuffle
    accounting under chaos are bit-identical to a fault-free run (the
    fault-tolerance contract; CI asserts it across engines).
    ``task_timeout`` sets the runtime's absolute soft deadline in seconds
    before a straggling attempt gets a speculative duplicate, and
    ``checkpoint_dir`` turns on stage-level checkpoint/resume in the plan
    scheduler (killed runs resume from their last finished stage).

    ``auto_tune`` lets the registry pick ``num_pivots``/``num_reducers``/
    engine/kernel-provider for the dataset at hand from the plan-time cost
    model (:mod:`repro.joins.autotune`) before the plan is built.  The tuned
    run is bit-identical to a hand-written config carrying the same chosen
    knobs — tuning moves knobs, never semantics.

    ``stage_fusion`` turns on plan-level map fusion: identity-map stages
    (the candidate-merge jobs) execute *premapped* — the producer's output
    pairs feed the consumer's shuffle directly — and ``chain_splits`` skips
    the modelled-DFS round trip for chained intermediates.  Results,
    counters and shuffle accounting are bit-identical to unfused runs (CI
    asserts it); only wall clock and intermediate I/O move.

    ``plan_cache_dir`` makes plan caching *persistent*: content-keyed stage
    results are serialized in the segment wire format under the directory
    (atomic writes, corruption-safe loads) and reused across processes —
    k-sweeps, bench reruns and service restarts skip the partitioning work.
    An injected ``plan_cache`` takes precedence when both are set.
    """

    k: int = 10
    num_reducers: int = 4
    metric_name: str = "l2"
    seed: int = 7
    split_size: int = 4096
    engine: str = DEFAULT_ENGINE
    max_workers: int | None = None
    memory_budget: int | None = None
    spill_dir: str | None = None
    kernel_provider: str = "auto"
    spill_codec: str = "none"
    plan_concurrency: bool = True
    task_timeout: float | None = None
    checkpoint_dir: str | None = None
    auto_tune: bool = False
    stage_fusion: bool = False
    plan_cache_dir: str | None = None
    chaos: ChaosPlan | None = field(default=None, compare=False, repr=False)
    shared_executor: Executor | None = field(default=None, compare=False, repr=False)
    plan_cache: PlanCache | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        if self.split_size < 1:
            raise ValueError("split_size must be >= 1")
        if self.engine not in available_engines():
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"available: {', '.join(available_engines())}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.memory_budget is not None and self.memory_budget < 0:
            raise ValueError("memory_budget must be >= 0 (or None for in-memory)")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be > 0 seconds (or None)")
        from repro.joins.kernel_providers import KERNEL_PROVIDERS

        if self.kernel_provider not in KERNEL_PROVIDERS:
            raise ValueError(
                f"unknown kernel provider {self.kernel_provider!r}; "
                f"available: {', '.join(sorted(KERNEL_PROVIDERS))}"
            )
        from repro.mapreduce.shuffle import SEGMENT_CODECS

        if self.spill_codec not in SEGMENT_CODECS:
            raise ValueError(
                f"unknown spill codec {self.spill_codec!r}; "
                f"available: {', '.join(SEGMENT_CODECS)}"
            )

    @property
    def out_of_core(self) -> bool:
        """Whether the join runs its shuffle (and DFS chunks) on disk."""
        return (
            self.memory_budget is not None
            or self.spill_dir is not None
            or self.spill_codec != "none"
        )

    def with_changes(self, **kwargs) -> "JoinConfig":
        """A copy with some fields replaced (sweep helper).

        Injected resources (``shared_executor``, ``plan_cache``) are carried
        into the copy **by reference** — ``dataclasses.replace`` re-invokes
        the constructor with the same objects, never deep-copying them — so
        every config of a sweep drives the same warm pool and the same stage
        cache.  Ownership does not move either: drivers never close a shared
        executor (only runtimes they built pools for), so a sweep closes its
        pool exactly once, after the last run.
        """
        return replace(self, **kwargs)

    def make_runtime(self, **runtime_kwargs) -> LocalRuntime:
        """Resolve the configured engine into a ready runtime.

        The single seam between join drivers and the execution substrate:
        drivers never construct runtimes inline, so swapping backends is a
        config change, not a code change.  ``runtime_kwargs`` pass through to
        :class:`LocalRuntime` (e.g. ``fault_injector``).  Drivers run the
        returned runtime as a context manager, so executors it constructs
        (including persistent pools) are torn down when the join finishes;
        a ``shared_executor`` is reused as-is and stays open for the caller.
        """
        if self.shared_executor is not None:
            runtime_kwargs.setdefault("executor", self.shared_executor)
        if self.chaos is not None:
            runtime_kwargs.setdefault("fault_injector", self.chaos)
        if self.task_timeout is not None:
            runtime_kwargs.setdefault("task_timeout", self.task_timeout)
        if self.out_of_core:
            runtime_kwargs.setdefault("shuffle", "spill")
            runtime_kwargs.setdefault("memory_budget", self.memory_budget)
            runtime_kwargs.setdefault("spill_dir", self.spill_dir)
            runtime_kwargs.setdefault("spill_codec", self.spill_codec)
        return LocalRuntime(
            engine=self.engine, max_workers=self.max_workers, **runtime_kwargs
        )

    def make_dfs(
        self, num_nodes: int | None = None, chunk_records: int | None = None
    ) -> DistributedFileSystem:
        """A DFS for job-chaining intermediates, matching the shuffle mode.

        In-memory configs get the historical in-RAM chunk store; out-of-core
        configs (``memory_budget``/``spill_dir`` set) get segment-backed
        chunks under the same spill location, so intermediates between
        chained jobs leave RAM together with the shuffle.  Drivers run the
        returned DFS as a context manager so segment files live exactly as
        long as the join.
        """
        return DistributedFileSystem(
            num_nodes=num_nodes if num_nodes is not None else self.num_reducers,
            chunk_records=chunk_records if chunk_records is not None else self.split_size,
            segment_backed=self.out_of_core,
            segment_dir=self.spill_dir,
        )

    def chain_dfs(self):
        """Where job-chaining intermediates are staged, in plan-resource form.

        Plan builders register the returned object with
        ``graph.resource(...)`` (which ignores ``None``) and hand the same
        object to ``chain_splits``: a segment-backed DFS for out-of-core
        configs — intermediates between chained jobs live in segment files
        — or ``None`` for in-memory configs, which chain in RAM.
        """
        return self.make_dfs() if self.out_of_core else None


@dataclass
class PgbjConfig(JoinConfig):
    """PGBJ-specific knobs (paper defaults: 4000 random pivots, geometric).

    ``num_pivots`` scales with data size in the benches; the paper's best
    setting is |P| = 4000 on 5.8M objects (RGE strategy).
    """

    num_pivots: int = 64
    pivot_selection: str = "random"
    grouping: str = "geometric"
    pivot_sample_size: int = 8192
    random_candidate_sets: int = 5
    kmeans_iterations: int = 8
    #: disable individual pruning rules (ablation benches)
    use_hyperplane_pruning: bool = True
    use_ring_pruning: bool = True
    #: skew-aware repartitioning: when one reducer group's share of the
    #: R records exceeds this fraction (e.g. 0.5), its work is split across
    #: extra reduce keys — R rows deterministically by object id, the
    #: admitted S candidates replicated to every sub-key.  Join results and
    #: ``pairs_computed`` are bit-identical (each r still meets exactly the
    #: same candidates); only replication/shuffle grow for the split group.
    #: ``0.0`` disables splitting.
    skew_split_threshold: float = 0.0
    #: upper bound on how many ways one skewed group is split
    skew_split_max_ways: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_pivots < 1:
            raise ValueError("num_pivots must be >= 1")
        if not 0.0 <= self.skew_split_threshold <= 1.0:
            raise ValueError("skew_split_threshold must be in [0, 1]")
        if self.skew_split_max_ways < 1:
            raise ValueError("skew_split_max_ways must be >= 1")


@dataclass
class BlockJoinConfig(JoinConfig):
    """Configuration for the block-framework algorithms (H-BRJ, PBJ).

    Both split R and S into ``sqrt(N)`` random subsets and run one reducer
    per block pair; ``rtree_capacity`` only matters for H-BRJ; ``num_pivots``
    and pivot options only for PBJ (which runs the partitioning job first).
    """

    rtree_capacity: int = 32
    num_pivots: int = 64
    pivot_selection: str = "random"
    pivot_sample_size: int = 8192
    random_candidate_sets: int = 5

    @property
    def num_blocks(self) -> int:
        """``sqrt(N)`` subsets per dataset, as in the paper's Section 3."""
        return max(1, int(np.sqrt(self.num_reducers)))


class StageStats(list):
    """Per-job :class:`JobStats` keyed by stable stage name, still a list.

    The plan-built joins attach one entry per executed stage, named after
    the plan stage that ran it (``"pgbj/partition"``, ``"pgbj/join"``, …).
    Positional consumers keep working unchanged — iteration order and
    integer indexing are exactly the submission-order list the drivers have
    always produced — while ``outcome.job_stats["pgbj/partition"]`` (or
    :meth:`named` / :meth:`as_dict`) addresses a stage without counting
    list positions.
    """

    def __init__(self, stats=(), names: tuple[str, ...] | list[str] = ()) -> None:
        super().__init__(stats)
        self.names = tuple(names)
        if self.names and len(self.names) != len(self):
            raise ValueError(
                f"{len(self)} stats entries but {len(self.names)} stage names"
            )

    def named(self, name: str) -> JobStats:
        """The stats of the stage with that name (KeyError if absent)."""
        for stage_name, stats in zip(self.names, self):
            if stage_name == name:
                return stats
        raise KeyError(f"no stage named {name!r}; stages: {list(self.names)}")

    def as_dict(self) -> dict[str, JobStats]:
        """Stage name -> stats, in submission order."""
        return dict(zip(self.names, self))

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.named(key)
        return super().__getitem__(key)


@dataclass
class JoinOutcome:
    """A completed join with the paper's three measurements attached.

    ``job_stats`` lists one :class:`JobStats` per executed MapReduce job in
    submission order; plan-built outcomes use :class:`StageStats`, which
    additionally keys each entry by its stable stage name.
    """

    algorithm: str
    result: KnnJoinResult
    r_size: int
    s_size: int
    k: int
    master_phases: dict[str, float] = field(default_factory=dict)
    job_stats: list[JobStats] = field(default_factory=list)
    job_phase_names: list[str] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    master_distance_pairs: int = 0

    # -- the three headline measurements ----------------------------------------

    @property
    def distance_pairs(self) -> int:
        """All object pairs computed, master preprocessing included."""
        return self.master_distance_pairs + self.counters.value(PAIRS_GROUP, PAIRS_NAME)

    def selectivity(self) -> float:
        """Equation 13: computed pairs over |R| x |S| (pivots included)."""
        return self.distance_pairs / (self.r_size * self.s_size)

    def shuffle_bytes(self) -> int:
        """Total mapper-to-reducer bytes across all jobs."""
        return sum(stats.shuffle_bytes for stats in self.job_stats)

    def shuffle_records(self) -> int:
        """Total shuffled records across all jobs."""
        return sum(stats.shuffle_records for stats in self.job_stats)

    def replication_of_s(self) -> int:
        """How many S-object records entered the shuffle (``RP(S)``)."""
        return self.counters.value(REPLICA_GROUP, REPLICA_NAME)

    # -- out-of-core bookkeeping (zero under the in-memory shuffle) -------------

    def spill_segments(self) -> int:
        """Sorted segment runs written to disk across all jobs."""
        return sum(stats.spill_segments for stats in self.job_stats)

    def spill_bytes(self) -> int:
        """Actual segment-file bytes written across all jobs."""
        return sum(stats.spill_bytes for stats in self.job_stats)

    def merge_passes(self) -> int:
        """K-way external merges the reduce phases performed across all jobs."""
        return sum(stats.merge_passes for stats in self.job_stats)

    # -- robustness bookkeeping (zero on a fault-free run) ----------------------

    def recovered_tasks(self) -> int:
        """Map tasks re-run because a reducer hit a lost/corrupt segment."""
        return sum(stats.recovered_tasks for stats in self.job_stats)

    def speculative_wins(self) -> int:
        """Tasks whose speculative duplicate beat the straggling original."""
        return sum(stats.speculative_wins for stats in self.job_stats)

    def checksum_failures(self) -> int:
        """Segment CRC32 mismatches detected across all jobs."""
        return sum(stats.checksum_failures for stats in self.job_stats)

    def spill_files_deleted(self) -> int:
        """Spill files of failed or superseded attempts removed eagerly."""
        return sum(stats.spill_files_deleted for stats in self.job_stats)

    def avg_replication_of_s(self) -> float:
        """``alpha``: average replicas per S object (paper Figure 7b)."""
        return self.replication_of_s() / self.s_size if self.s_size else 0.0

    def simulated_seconds(self, cluster: Cluster) -> float:
        """Modelled wall-clock: master phases + each job on the cluster."""
        total = sum(self.master_phases.values())
        total += sum(stats.simulated_seconds(cluster) for stats in self.job_stats)
        return total

    def phase_seconds(self, cluster: Cluster) -> dict[str, float]:
        """Per-phase breakdown in Figure 6's vocabulary."""
        phases = dict(self.master_phases)
        for name, stats in zip(self.job_phase_names, self.job_stats):
            phases[name] = phases.get(name, 0.0) + stats.simulated_seconds(cluster)
        return phases
