"""Shared join configuration, input boundary check and outcome types.

Every algorithm (PGBJ, PBJ, H-BRJ, broadcast) consumes two
:class:`~repro.core.dataset.Dataset` objects and produces a
:class:`JoinOutcome`: the exact join result plus the three measurements the
paper's evaluation reports — running time (via the cluster model),
computation selectivity (Equation 13) and shuffling cost.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Any

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
from repro.mapreduce.shuffle import SEGMENT_CODECS
from repro.mapreduce.stats import JobStats

from .kernel_providers import KERNEL_PROVIDERS

__all__ = [
    "InvalidJoinInput",
    "Knob",
    "knob",
    "JoinConfig",
    "PgbjConfig",
    "BlockJoinConfig",
    "execution_knobs",
    "config_knobs",
    "knobs_from_env",
    "knob_table",
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


@dataclass(frozen=True)
class Knob:
    """One row of the execution-knob table: one CLI flag.

    Rows are declared where the value lives — ``name: type = knob(default,
    flag, env, help=...)`` on a :class:`JoinConfig` field — and read back by
    :func:`execution_knobs`, which fills in ``field`` and ``default``.  The
    CLI's flags, :func:`knobs_from_env` and :func:`knob_table` are derived
    from the rows, so a knob is added, renamed or deleted in one place.

    ``type`` turns the flag's (or variable's) text into the value and
    ``choices`` lists the valid names, checked again by
    :meth:`JoinConfig.__post_init__`.  A row with ``attribute`` set does not
    fill its field: it replaces that attribute of the value an earlier row
    gave it (``--chaos-seed`` re-seeds the plan ``--chaos-spec`` parsed).
    """

    flag: str
    env: str | None
    help: str
    type: Callable[[str], Any] = str
    choices: tuple[str, ...] = ()
    attribute: str | None = None
    field: str = ""
    default: Any = None

    @property
    def name(self) -> str:
        """The row's key in per-flag value mappings (the argparse ``dest``)."""
        return self.field if self.attribute is None else f"{self.field}.{self.attribute}"

    @property
    def is_switch(self) -> bool:
        """An on/off knob: its flag takes no argument and flips the default."""
        return isinstance(self.default, bool)

    def from_env(self, environ: Mapping[str, str] | None = None) -> Any:
        """The value the row's variable spells; ``None`` when it has no
        variable or the variable is absent or blank.  A bad value raises a
        ``ValueError`` naming the variable and what it accepts."""
        environ = os.environ if environ is None else environ
        text = environ.get(self.env or "", "").strip()
        if not text:
            return None
        choices, convert = self.choices, self.type
        if self.is_switch:
            text, choices, convert = text.lower(), tuple(_SWITCH_WORDS), _SWITCH_WORDS.get
        if choices and text not in choices:
            raise ValueError(f"{self.env} must be one of {', '.join(choices)}, got {text!r}")
        try:
            return convert(text)
        except ValueError as error:
            raise ValueError(f"{self.env} got {text!r}: {error}") from None


#: what an on/off variable may say
_SWITCH_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}  # fmt: skip


def knob(
    default: Any,
    flag: str,
    env: str | None,
    *,
    more: Iterable[Knob] = (),
    compare: bool = True,
    repr: bool = True,
    **spec: Any,
) -> Any:
    """A dataclass field that is also an execution knob: ``spec`` completes
    its :class:`Knob` row, ``more`` are the rows that modify its value."""
    rows = (Knob(flag, env, **spec), *more)
    return field(default=default, compare=compare, repr=repr, metadata={"knobs": rows})


@dataclass
class JoinConfig:
    """Parameters shared by all join algorithms.

    ``num_reducers`` is ``N`` in the paper — the cluster runs one reduce task
    per node, so this is also the modelled node count of the join job.

    The fields declared with :func:`knob` are the *execution knobs*: where
    and how the join runs, never what it computes — every setting of them
    yields bit-identical results, counters and shuffle accounting (CI asserts
    it leg by leg).  Each says what it does in its ``help``, once;
    :func:`knob_table` (``repro info``, README) lists them with their flags
    and environment variables.

    ``shared_executor`` (optional, not part of the value of the config)
    injects a ready :class:`~repro.mapreduce.engines.Executor` every runtime
    this config makes will reuse — the way a multi-join pipeline keeps one
    persistent pool warm across *driver runs*.  The caller owns its
    lifecycle; drivers close only runtimes whose executor they created.
    Like every injected-resource field it is carried *by reference* through
    :meth:`with_changes` (``dataclasses.replace`` re-passes the same object,
    it never copies it), so a sweep of derived configs shares one pool —
    and must close it exactly once, itself, when the sweep ends.

    ``plan_cache`` (optional, injected like ``shared_executor`` and likewise
    carried by reference across :meth:`with_changes`) memoizes content-keyed
    plan stages across runs: a sweep holding one
    :class:`~repro.mapreduce.plan.PlanCache` re-executes only the stages
    whose inputs changed — e.g. one PGBJ partitioning job shared by a whole
    k-sweep.  It takes precedence over ``plan_cache_dir`` when both are set.
    """

    k: int = 10
    num_reducers: int = 4
    metric_name: str = "l2"
    seed: int = 7
    split_size: int = 4096
    # one declaration per execution knob — default, flag, variable, then what it does
    engine: str = knob(
        DEFAULT_ENGINE, "--engine", "REPRO_ENGINE", choices=available_engines(),
        help="task execution backend of every MapReduce job of the join; the *-pooled "
        "engines keep one warm worker pool across all phases, retry rounds and jobs",
    )
    max_workers: int | None = knob(
        None, "--workers", "REPRO_WORKERS", type=int,
        help="worker count of the parallel engines (default: CPU count)",
    )
    memory_budget: int | None = knob(
        None, "--memory-budget", "REPRO_MEMORY_BUDGET", type=int,
        help="run the shuffle out of core: each map task buffers at most this many "
        "(estimated) bytes of output before writing a sorted segment run to disk, "
        "and reducers stream a k-way external merge",
    )
    spill_dir: str | None = knob(
        None, "--spill-dir", None,
        help="directory for shuffle segment files and chained intermediates "
        "(default: system temp); implies the out-of-core shuffle",
    )
    kernel_provider: str = knob(
        "auto", "--kernel-provider", "REPRO_KERNEL_PROVIDER", choices=tuple(KERNEL_PROVIDERS),
        help="reducer hot-loop implementation: numpy (the oracle), numba (JIT-compiled; "
        "falls back to numpy with a warning when the library is missing) or auto "
        "(per call by batch shape)",
    )
    spill_codec: str = knob(
        "none", "--spill-codec", "REPRO_SPILL_CODEC", choices=tuple(SEGMENT_CODECS),
        help="compress spilled segment payloads on disk (implies the out-of-core "
        "shuffle); accounted shuffle bytes stay the uncompressed sizes",
    )
    plan_concurrency: bool = knob(
        True, "--no-plan-concurrency", None,
        help="run the plan's stages strictly in declaration order instead of "
        "overlapping independent stages",
    )
    task_timeout: float | None = knob(
        None, "--task-timeout", None, type=float,
        help="absolute per-task deadline in seconds; a task running longer gets a "
        "speculative duplicate (parallel engines) and the first copy to finish wins",
    )
    checkpoint_dir: str | None = knob(
        None, "--checkpoint-dir", None,
        help="persist each finished plan stage here; re-running the same join after "
        "a crash resumes from the last completed stage",
    )
    auto_tune: bool = knob(
        False, "--auto-tune", "REPRO_AUTO_TUNE",
        help="let the cost model pick the knobs left at their defaults (pivots, "
        "reducers, engine, fusion, skew splitting) for the dataset at hand; a "
        "tuned run equals the hand-written config carrying the chosen knobs",
    )
    stage_fusion: bool = knob(
        False, "--fuse-stages", "REPRO_STAGE_FUSION",
        help="fuse identity-map stages into their consumers: the candidate-merge jobs "
        "skip their map pass and chained intermediates skip the DFS round trip",
    )
    plan_cache_dir: str | None = knob(
        None, "--plan-cache-dir", "REPRO_PLAN_CACHE_DIR",
        help="persistent plan cache: content-keyed stage results are stored here in "
        "the segment wire format and reused across processes (atomic writes; a "
        "corrupt file is a miss)",
    )
    chaos: ChaosPlan | None = knob(
        None, "--chaos-spec", "REPRO_CHAOS", type=ChaosPlan.from_spec, compare=False, repr=False,
        help="inject deterministic faults, e.g. 'crash:rate=0.2:attempt=1;corrupt:"
        "rate=0.1' (actions: crash, delay, kill, corrupt, delete)",
        more=[
            Knob(
                "--chaos-seed", "REPRO_CHAOS_SEED", type=int, attribute="seed",
                help="seed of the chaos plan's per-task coin flips (default: the "
                "spec's own seed=N clause, else 0)",
            )
        ],
    )
    shared_executor: Executor | None = field(default=None, compare=False, repr=False)
    plan_cache: PlanCache | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        if self.split_size < 1:
            raise ValueError("split_size must be >= 1")
        for row in execution_knobs(type(self)):
            if row.choices and getattr(self, row.field) not in row.choices:
                raise ValueError(
                    f"unknown {row.field.replace('_', ' ')} {getattr(self, row.field)!r}; "
                    f"available: {', '.join(row.choices)}"
                )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.memory_budget is not None and self.memory_budget < 0:
            raise ValueError("memory_budget must be >= 0 (or None for in-memory)")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be > 0 seconds (or None)")

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

    def make_runtime(self) -> LocalRuntime:
        """Resolve the configured engine into a ready runtime.

        The single seam between join drivers and the execution substrate:
        drivers never construct runtimes inline, so swapping backends is a
        config change, not a code change.  Drivers run the returned runtime
        as a context manager, so executors it constructs (including
        persistent pools) are torn down when the join finishes; a
        ``shared_executor`` is reused as-is and stays open for the caller.
        The runtime itself turns any of the three out-of-core knobs into the
        ``spill`` shuffle backend.
        """
        return LocalRuntime(
            fault_injector=self.chaos,
            engine=self.engine,
            max_workers=self.max_workers,
            executor=self.shared_executor,
            memory_budget=self.memory_budget,
            spill_dir=self.spill_dir,
            spill_codec=self.spill_codec,
            task_timeout=self.task_timeout,
        )

    def make_dfs(self) -> DistributedFileSystem:
        """A DFS for job-chaining intermediates, matching the shuffle mode.

        In-memory configs get the historical in-RAM chunk store; out-of-core
        configs (``memory_budget``/``spill_dir`` set) get segment-backed
        chunks under the same spill location, so intermediates between
        chained jobs leave RAM together with the shuffle.  Drivers run the
        returned DFS as a context manager so segment files live exactly as
        long as the join.
        """
        return DistributedFileSystem(
            num_nodes=self.num_reducers,
            chunk_records=self.split_size,
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


@functools.cache
def execution_knobs(config_class: type[JoinConfig] = JoinConfig) -> tuple[Knob, ...]:
    """The knob table of a config class: its fields' :class:`Knob` rows, in
    field order, each knowing its field and the field's default."""
    return tuple(
        replace(row, field=spec.name, default=None if row.attribute else spec.default)
        for spec in fields(config_class)
        for row in spec.metadata.get("knobs", ())
    )


def config_knobs(values: Mapping[str, Any], rows: Iterable[Knob]) -> dict[str, Any]:
    """Per-flag values (keyed by :attr:`Knob.name`) as config keyword
    arguments.  A row without a value (absent or ``None``) leaves its knob
    out, so the config default applies; a modifier row with one replaces its
    attribute of what the field's own row supplied."""
    knobs: dict[str, Any] = {}
    for row in rows:
        value = values.get(row.name)
        if value is None:
            continue
        if row.attribute is None:
            knobs[row.field] = value
        elif row.field in knobs:
            knobs[row.field] = replace(knobs[row.field], **{row.attribute: value})
    return knobs


def knobs_from_env(
    environ: Mapping[str, str] | None = None,
    config_class: type[JoinConfig] = JoinConfig,
) -> dict[str, Any]:
    """Config keyword arguments for exactly the knobs whose environment
    variable is set — what the bench harness, the CI legs' suites and the
    CLI's flag defaults all read, so a variable means one thing everywhere.
    A bad value raises :meth:`Knob.from_env`'s ``ValueError``."""
    rows = execution_knobs(config_class)
    return config_knobs({row.name: row.from_env(environ) for row in rows}, rows)


def knob_table(config: JoinConfig | None = None) -> str:
    """The knob table as Markdown: README's copy, and — given the config in
    effect, which adds a last column — what ``repro info`` prints."""
    header = ["field", "flag", "env", "default", "affects results"]
    if config is not None:
        header.append("in effect")
    table = [header, ["---"] * len(header)]
    for row in execution_knobs(JoinConfig if config is None else type(config)):
        env = f"`{row.env}`" if row.env else "—"
        cells = [f"`{row.name}`", f"`{row.flag}`", env, f"`{row.default}`", "never"]
        if config is not None:
            value = getattr(config, row.field)
            if row.attribute is not None:
                value = getattr(value, row.attribute, None)
            cells.append(f"`{value}`")
        table.append(cells)
    return "\n".join("| " + " | ".join(cells) + " |" for cells in table)


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
