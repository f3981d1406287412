"""The first MapReduce job: Voronoi partitioning + summary collection.

Paper Section 4.2: a map-only job reads every object of ``R ∪ S``, assigns it
to its closest pivot, and emits the object tagged with its partition id and
pivot distance (Figure 4).  Each map task additionally builds partial summary
tables over its split, shipped to the master through a side channel and
merged when the job completes ("Index Merging" in Figure 6).  In a
self-join (``r is s``) the job reads the one dataset once and emits each
object once, as one row of both roles, from one assignment.

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
from repro.core.geometry import anchor_codes
from repro.core.partition import VoronoiPartitioner
from repro.core.summary import SummaryTable, build_partial_summary
from repro.mapreduce.job import BlockBufferingMapper, Context, MapReduceJob
from repro.mapreduce.plan import JobGraph, Stage, StageContext
from repro.mapreduce.runtime import JobResult, LocalRuntime
from repro.mapreduce.splits import cell_dtype, dataset_splits, self_join_splits
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
    "partitioning_job",
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


def make_pivot_selector(config) -> PivotSelector:
    """Instantiate the configured pivot selector with its knobs.

    Reads the pivot-selection fields shared by :class:`PgbjConfig` and
    :class:`BlockJoinConfig` (``kmeans_iterations`` exists only on the
    former; the paper default stands in elsewhere).
    """
    name = config.pivot_selection.lower()
    if name == "random":
        return RandomPivotSelector()
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
    task — each row's cell (in :func:`~repro.mapreduce.splits.cell_dtype`
    of ``M``), pivot distance and the codes of all ``A`` anchor distances
    its assignment computed — rows stable-sorted by cell id
    (objects of one cell keep their input order), under an int key, so the
    second job's mappers route a whole split as one block.  Byte accounting and the DFS chunker weigh rows, not
    blocks, so ``output_bytes`` and the next job's split boundaries are those
    of one record per object.

    ``T_S`` partials keep *every* per-partition pivot distance (master-side
    merging truncates to the join's k) — the k never enters this job.

    In a self-join (splits from
    :func:`~repro.mapreduce.splits.self_join_splits`) every row is an object
    of both R and S (role :data:`~repro.mapreduce.types.ROLE_BOTH`),
    assigned once and emitted once, and both summary partials are built from
    the one assignment.  Counters still read as if each role had been
    assigned apart: computed + skipped = (|R| + |S|) x M.
    """

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        self._metric = get_metric(ctx.cache["metric_name"])
        self._partitioner = VoronoiPartitioner(
            ctx.cache["pivots"], self._metric, ctx.cache["anchors"]
        )
        self._code_rows = ctx.cache["code_rows"]
        self._cell_dtype = cell_dtype(self._partitioner.num_partitions)

    def route_block(self, block: RecordBlock, ctx: Context):
        pids, dists, anchor_dists = self._partitioner.assign_points(block.points)
        is_r, is_s = block.is_r, block.is_s
        for channel, mask, keep_all in ((CHANNEL_TR, is_r, False), (CHANNEL_TS, is_s, True)):
            if mask.any():
                summary_k = int(mask.sum()) if keep_all else 0
                ctx.side_output(
                    channel, build_partial_summary(pids[mask], dists[mask], k=summary_k)
                )
        computed = self._metric.pairs_computed
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, computed)
        # each role counts as assigned: (|R| + |S|) x M pairs in all
        all_pairs = (int(is_r.sum()) + int(is_s.sum())) * self._partitioner.num_partitions
        ctx.counters.incr(PAIRS_GROUP, SKIPPED_NAME, all_pairs - computed)
        order = np.argsort(pids, kind="stable")
        annotated = block.take(order)
        annotated.partition_ids = pids[order].astype(self._cell_dtype)
        annotated.pivot_distances = dists[order]
        annotated.anchor_codes = anchor_codes(
            anchor_dists[order], pids[order], dists[order], self._code_rows
        )
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


def partitioning_job(
    r: Dataset, s: Dataset, pivots: np.ndarray, pdm: np.ndarray, config: JoinConfig, anchors: tuple
) -> tuple[MapReduceJob, list]:
    """The map-only partitioning job over ``R ∪ S`` (k-independent) and its
    input splits — one pass over the dataset, in both roles, when ``r is s``.
    ``anchors`` is the master's :meth:`VoronoiPartitioner.anchor_index` over
    ``pivots``, whose distance matrix is ``pdm``; each object carries codes of
    its distances to every one of its anchors."""
    job = MapReduceJob(
        name="partitioning",
        mapper_factory=PartitioningMapper,
        reducer_factory=None,
        cache={
            "pivots": pivots,
            "anchors": anchors,
            "code_rows": pdm[anchors[0]],
            "metric_name": config.metric_name,
        },
    )
    if r is s:
        return job, self_join_splits(r, config.split_size)
    return job, dataset_splits(r, s, config.split_size)


def run_partitioning_job(
    r: Dataset,
    s: Dataset,
    pivots: np.ndarray,
    config: JoinConfig,
    runtime: LocalRuntime,
) -> JobResult:
    """Execute the map-only partitioning job over ``R ∪ S`` (test seam; the
    drivers run it as a plan stage via :func:`partition_stage`)."""
    partitioner = VoronoiPartitioner(pivots, get_metric(config.metric_name))
    job = partitioning_job(
        r, s, pivots, partitioner.pivot_distance_matrix(), config, partitioner.anchor_index()
    )
    return runtime.run(*job)


def partition_stage_key(r: Dataset, s: Dataset, config: JoinConfig, num_pivots: int):
    """Content key of the partitioning stage: everything its job depends on.

    Datasets are fingerprinted by content, and a self-join (``r is s``, one
    assignment per object) is told from an equal copy; every config field
    that reaches pivot selection or the job itself is pinned.  ``k`` is deliberately
    absent (see module docstring), which is exactly what makes the paper's
    Figure 8/9 "effect of k" sweeps reuse one partitioning run — and since
    PGBJ, PBJ and closest-pairs build the identical job from the same
    inputs, the prefix is even shared *across algorithms*.  The code version
    is :data:`~repro.joins.registry.RESULTS_VERSION`.
    """
    from . import registry  # local: registry imports drivers' peers

    return (
        "voronoi-partition",
        registry.RESULTS_VERSION,
        registry.dataset_fingerprint(r),
        registry.dataset_fingerprint(s),
        r is s,
        config.metric_name,
        int(config.split_size),
        int(config.seed),
        int(num_pivots),
        config.pivot_selection,
        int(config.pivot_sample_size),
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
    ``state["metric"]``; random selection is §4.1 with ``T = 1``, so the
    matrix's ``M(M-1)/2`` pairs are all it costs — scoring ``T`` sets by
    spread cost ``T`` times that and bought no cheaper cells) and returns
    the k-independent partitioning job; ``state`` receives ``"pivots"``,
    ``"pivot_dist_matrix"``, ``"code_anchors"`` (the pivots its objects'
    anchor codes refer to) and ``"metric"`` for the downstream stages of
    the same plan, which read the job's blocks (``outputs``: a row per
    object of ``R ∪ S``, one per object in a self-join) as their input.  The
    stage is content-keyed, so a :class:`~repro.mapreduce.plan.PlanCache`
    can serve the job result to every sweep point whose prefix is unchanged.
    """

    def build(ctx: StageContext):
        rng = np.random.default_rng(config.seed)
        metric = get_metric(config.metric_name)
        selector = make_pivot_selector(config)
        with ctx.timed("pivot_selection"):
            pivots, pdm = selector.select_with_distances(r, num_pivots, metric, rng)
            anchors = VoronoiPartitioner(pivots, metric, distance_matrix=pdm).anchor_index()
        state["pivots"] = pivots
        state["pivot_dist_matrix"] = pdm
        state["code_anchors"] = anchors[0]
        state["metric"] = metric
        return partitioning_job(r, s, pivots, pdm, config, anchors)

    # the key fingerprints both datasets (a sha1 pass each) — only worth
    # computing when a cache (in-process or persistent) will consume it
    key = partition_stage_key(r, s, config, num_pivots) if config.caches_stages else None
    return graph.stage(f"{graph.name}/partition", build, key=key)
