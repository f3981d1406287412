"""The first MapReduce job: Voronoi partitioning + summary collection.

Paper Section 4.2: a map-only job reads every object of ``R ∪ S``, assigns it
to its closest pivot, and emits the object tagged with its partition id and
pivot distance (Figure 4).  Each map task additionally builds partial summary
tables over its split, shipped to the master through a side channel and
merged when the job completes ("Index Merging" in Figure 6).

The job is deliberately **k-independent**: partial ``T_S`` tables carry the
full per-partition distance lists and :func:`merge_summaries` truncates to
the k smallest at merge time — the k smallest of a union equal the k
smallest of per-task-truncated lists, so the merged tables are identical to
the historical map-side truncation, while the job itself (spec, outputs,
counters, accounting) depends only on the datasets, the pivots and the
split size.  That is what lets the plan layer content-key this stage and
share one partitioning run across a whole k-sweep
(:class:`~repro.mapreduce.plan.PlanCache`).

PGBJ, PBJ and the closest-pairs operator all run this job (via
:func:`partition_stage` in their plans); H-BRJ does not (it needs no
partitioning).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.core.partition import VoronoiPartitioner
from repro.core.summary import SummaryTable, build_partial_summary
from repro.mapreduce.job import BlockBufferingMapper, Context, MapReduceJob
from repro.mapreduce.plan import JobGraph, Stage, StageContext
from repro.mapreduce.runtime import JobResult, LocalRuntime
from repro.mapreduce.splits import dataset_splits
from repro.mapreduce.types import RecordBlock
from repro.pivots import (
    FarthestPivotSelector,
    KMeansPivotSelector,
    PivotSelector,
    RandomPivotSelector,
)

from .base import PAIRS_GROUP, PAIRS_NAME, JoinConfig

__all__ = [
    "PartitioningMapper",
    "run_partitioning_job",
    "merge_summaries",
    "make_pivot_selector",
    "partition_stage",
    "partition_stage_key",
]

#: side-output channel names for the partial summary tables
CHANNEL_TR = "partial_tr"
CHANNEL_TS = "partial_ts"

#: counter of the object-pivot pairs the assignment proved it need not compute
#: (computed + skipped = objects x pivots, the paper's all-pairs count)
SKIPPED_NAME = "assignment_pairs_skipped"
#: in :func:`partition_stage_key`: bump whenever the job's outputs *or counters*
#: change, so a persisted entry of older code is never served
PARTITION_JOB_VERSION = 2


def make_pivot_selector(config) -> PivotSelector:
    """Instantiate the configured pivot selector with its knobs.

    Reads the pivot-selection fields shared by :class:`PgbjConfig` and
    :class:`BlockJoinConfig` (``kmeans_iterations`` exists only on the
    former; the paper default stands in elsewhere).
    """
    name = config.pivot_selection.lower()
    if name == "random":
        return RandomPivotSelector(num_candidate_sets=config.random_candidate_sets)
    if name == "farthest":
        return FarthestPivotSelector(sample_size=config.pivot_sample_size)
    if name == "kmeans":
        return KMeansPivotSelector(
            sample_size=config.pivot_sample_size,
            max_iterations=getattr(config, "kmeans_iterations", 8),
        )
    raise ValueError(f"unknown pivot selection strategy {config.pivot_selection!r}")


class PartitioningMapper(BlockBufferingMapper):
    """Assigns each object of the split to its Voronoi cell.

    The split is buffered by the base class and partitioned in one vectorised
    pass at cleanup — semantically identical to per-record assignment (all
    emission happens before the shuffle) but far cheaper per object.  Output
    is one annotated :class:`~repro.mapreduce.types.RecordBlock` per map
    task: rows stable-sorted by cell id (objects of one cell keep their input
    order), under an int key, so the second job's mappers route a whole split
    as one block.  Byte accounting and the DFS chunker weigh rows, not
    blocks, so ``output_bytes`` and the next job's split boundaries are those
    of one record per object.

    ``T_S`` partials keep *every* per-partition pivot distance (master-side
    merging truncates to the join's k) — the k never enters this job.
    """

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        self._metric = get_metric(ctx.cache["metric_name"])
        self._partitioner = VoronoiPartitioner(
            ctx.cache["pivots"], self._metric, ctx.cache["anchors"]
        )

    def route_block(self, block: RecordBlock, ctx: Context):
        pids, dists = self._partitioner.assign_points(block.points)
        for channel, mask, keep_all in (
            (CHANNEL_TR, block.is_r, False),
            (CHANNEL_TS, ~block.is_r, True),
        ):
            if mask.any():
                summary_k = int(mask.sum()) if keep_all else 0
                ctx.side_output(
                    channel, build_partial_summary(pids[mask], dists[mask], k=summary_k)
                )
        computed = self._metric.pairs_computed
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, computed)
        all_pairs = len(block) * self._partitioner.num_partitions
        ctx.counters.incr(PAIRS_GROUP, SKIPPED_NAME, all_pairs - computed)
        order = np.argsort(pids, kind="stable")
        annotated = block.take(order)
        annotated.partition_ids = pids[order]
        annotated.pivot_distances = dists[order]
        yield 0, annotated


def merge_summaries(job_result: JobResult, k: int) -> tuple[SummaryTable, SummaryTable, float]:
    """Index merging: fold the per-task partial tables into ``T_R``/``T_S``.

    ``T_S`` is truncated to the k smallest distances per partition *here* —
    the partials are untruncated, so one partitioning job result serves any
    k.  Returns ``(tr, ts, master_seconds)``.
    """
    started = time.perf_counter()
    tr = SummaryTable(k=0)
    for partial in job_result.side_outputs.get(CHANNEL_TR, []):
        tr.merge(partial)
    ts = SummaryTable(k=k)
    for partial in job_result.side_outputs.get(CHANNEL_TS, []):
        ts.merge(partial)
    return tr, ts, time.perf_counter() - started


def partitioning_job_spec(pivots: np.ndarray, config: JoinConfig, anchors: tuple) -> MapReduceJob:
    """The map-only partitioning job over ``R ∪ S`` (k-independent); ``anchors``
    is the master's :meth:`VoronoiPartitioner.anchor_index` over ``pivots``."""
    return MapReduceJob(
        name="partitioning",
        mapper_factory=PartitioningMapper,
        reducer_factory=None,
        cache={
            "pivots": pivots,
            "anchors": anchors,
            "metric_name": config.metric_name,
        },
    )


def run_partitioning_job(
    r: Dataset,
    s: Dataset,
    pivots: np.ndarray,
    config: JoinConfig,
    runtime: LocalRuntime,
) -> JobResult:
    """Execute the map-only partitioning job over ``R ∪ S`` (test seam; the
    drivers run it as a plan stage via :func:`partition_stage`)."""
    anchors = VoronoiPartitioner(pivots, get_metric(config.metric_name)).anchor_index()
    job = partitioning_job_spec(pivots, config, anchors)
    return runtime.run(job, dataset_splits(r, s, config.split_size))


def partition_stage_key(r: Dataset, s: Dataset, config: JoinConfig, num_pivots: int):
    """Content key of the partitioning stage: everything its job depends on.

    Datasets are fingerprinted by content; every config field that reaches
    pivot selection or the job itself is pinned.  ``k`` is deliberately
    absent (see module docstring), which is exactly what makes the paper's
    Figure 8/9 "effect of k" sweeps reuse one partitioning run — and since
    PGBJ, PBJ and closest-pairs build the identical job from the same
    inputs, the prefix is even shared *across algorithms*.
    """
    from .registry import dataset_fingerprint  # local: registry imports drivers' peers

    return (
        "voronoi-partition",
        PARTITION_JOB_VERSION,
        dataset_fingerprint(r),
        dataset_fingerprint(s),
        config.metric_name,
        int(config.split_size),
        int(config.seed),
        int(num_pivots),
        config.pivot_selection,
        int(config.pivot_sample_size),
        int(config.random_candidate_sets),
        int(getattr(config, "kmeans_iterations", 8)),
    )


def partition_stage(
    graph: JobGraph,
    r: Dataset,
    s: Dataset,
    config: JoinConfig,
    num_pivots: int,
    state: dict,
) -> Stage:
    """Add the shared partitioning stage (pivot selection + first job).

    The builder selects pivots and computes their distance matrix on the
    master (timed as the ``pivot_selection`` phase, counted on
    ``state["metric"]``) and returns the k-independent partitioning job;
    ``state`` receives ``"pivots"``, ``"pivot_dist_matrix"`` and ``"metric"``
    for the downstream stages of the same plan.  The stage is
    content-keyed, so a :class:`~repro.mapreduce.plan.PlanCache` can serve
    the job result to every sweep point whose prefix is unchanged.
    """

    def build(ctx: StageContext):
        rng = np.random.default_rng(config.seed)
        metric = get_metric(config.metric_name)
        selector = make_pivot_selector(config)
        with ctx.timed("pivot_selection"):
            pivots = selector.select(r, num_pivots, metric, rng)
            partitioner = VoronoiPartitioner(pivots, metric)
            state["pivot_dist_matrix"] = partitioner.pivot_distance_matrix()
            job = partitioning_job_spec(pivots, config, partitioner.anchor_index())
        state["pivots"] = pivots
        state["metric"] = metric
        return job, dataset_splits(r, s, config.split_size)

    # the key fingerprints both datasets (a sha1 pass each) — only worth
    # computing when a cache (in-process or persistent) will consume it
    key = (
        partition_stage_key(r, s, config, num_pivots)
        if config.plan_cache is not None or config.plan_cache_dir
        else None
    )
    return graph.stage(f"{graph.name}/partition", build, key=key)
