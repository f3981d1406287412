"""Distributed range selection (paper Definition 3, Corollary 1, Theorem 2).

The paper's Preliminaries develop the Voronoi pruning machinery on the range
selection query — "given a dataset O, an object q and a threshold theta,
find all o with |q, o| <= theta" — before applying it to the kNN join.  This
module completes that story as a runnable MapReduce operator over the same
substrate:

* the dataset is Voronoi-partitioned and partitions are grouped exactly as
  in PGBJ's first job;
* queries are broadcast via the distributed cache (they are few and small,
  the dataset is large — the opposite replication choice from the join);
* a mapper ships each object only to reducers owning a query whose ball can
  reach the object's cell (Corollary 1 at cell granularity);
* the reducer applies the Theorem 2 ring per (query, cell) and verifies
  survivors by true distance.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.core.geometry import PRUNE_EPS, ring_slice
from repro.core.partition import VoronoiPartitioner
from repro.mapreduce.job import BlockBufferingMapper, Context, MapReduceJob, Reducer
from repro.mapreduce.partitioners import ModPartitioner
from repro.mapreduce.plan import JobGraph
from repro.mapreduce.splits import cell_dtype, dataset_block
from repro.mapreduce.types import ROLE_S, RecordBlock

from .base import PAIRS_GROUP, PAIRS_NAME, JoinConfig
from .block_framework import chain_splits
from .kernels import build_s_blocks
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["RangeSelectionOutcome", "plan_range_selection"]


class RangeQueryRoutingMapper(BlockBufferingMapper):
    """Ships each object to the reducers whose queries may reach it.

    A query ``q`` (owned by reducer ``hash(q) % N``) can only meet objects of
    cell ``P_j`` if its ball intersects the cell's occupied ring:
    ``|q, p_j| - theta <= U_j`` and ``|q, p_j| + theta >= L_j``.  Objects of
    cells no query reaches are dropped at the mapper — the range analogue of
    the Corollary 2 shipping rule.  Each reducer's rule is one reachable-cell
    mask, so a task's block is routed with one row selection per reducer.
    """

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        theta = float(ctx.cache["theta"])
        ring_stats: dict[int, tuple[float, float]] = ctx.cache["ring_stats"]
        # per reducer: distances from its queries to every pivot
        query_pivot_dists: dict[int, np.ndarray] = ctx.cache["query_pivot_dists"]
        cells = np.array(list(ring_stats), dtype=np.int64)
        lower, upper = np.array(list(ring_stats.values()), dtype=np.float64).reshape(-1, 2).T
        self._reachable: dict[int, np.ndarray] = {}
        for reducer, dists in query_pivot_dists.items():
            reach = dists[:, cells]
            mask = np.zeros(dists.shape[1], dtype=bool)
            mask[cells] = np.any(
                (reach - theta <= upper + PRUNE_EPS) & (reach + theta >= lower - PRUNE_EPS),
                axis=0,
            )
            self._reachable[reducer] = mask

    def route_block(self, block: RecordBlock, ctx: Context):
        for reducer, mask in self._reachable.items():
            rows = np.flatnonzero(mask[block.partition_ids])
            if rows.size:
                yield reducer, block.take(rows)


class RangeQueryReducer(Reducer):
    """Theorem 2 ring filter + exact verification for the local queries."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._theta = float(ctx.cache["theta"])
        self._queries: dict[int, list[tuple[int, np.ndarray]]] = ctx.cache[
            "queries_by_reducer"
        ]
        self._query_pivot_dists: dict[int, np.ndarray] = ctx.cache["query_pivot_dists"]
        self._ring_stats: dict[int, tuple[float, float]] = ctx.cache["ring_stats"]

    def reduce(self, key, values, ctx: Context):
        blocks = build_s_blocks(RecordBlock.gather(values))
        queries = self._queries.get(int(key), [])
        pivot_dists = self._query_pivot_dists[int(key)]
        for query_index, (query_id, query_point) in enumerate(queries):
            matches: list[int] = []
            for pid, block in blocks.items():
                lower, upper = self._ring_stats[pid]
                dist_q_pj = float(pivot_dists[query_index, pid])
                start, stop = ring_slice(
                    block.pivot_dists, lower, upper, dist_q_pj, self._theta
                )
                if start >= stop:
                    continue
                dists = self._metric.distances(query_point, block.points[start:stop])
                inside = dists <= self._theta + PRUNE_EPS
                matches.extend(int(i) for i in block.ids[start:stop][inside])
            yield query_id, sorted(matches)

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


class RangeSelectionOutcome:
    """Results plus measurements of one distributed range selection."""

    def __init__(self, matches: dict[int, list[int]], shuffle_records: int,
                 shuffle_bytes: int, distance_pairs: int, dataset_size: int,
                 num_queries: int) -> None:
        self.matches = matches
        self.shuffle_records = shuffle_records
        self.shuffle_bytes = shuffle_bytes
        self.distance_pairs = distance_pairs
        self._dataset_size = dataset_size
        self._num_queries = num_queries

    def selectivity(self) -> float:
        """Computed pairs over |queries| x |O| (pivot pairs included)."""
        return self.distance_pairs / max(self._num_queries * self._dataset_size, 1)


def plan_range_selection(
    dataset: Dataset,
    queries: Dataset,
    config: JoinConfig,
    theta: float = 0.0,
    num_pivots: int = 32,
) -> JoinPlan:
    """Plan the one-stage range-selection operator (``range-selection/select``):
    all objects of ``dataset`` within ``theta`` of each query point.

    ``config.k`` is ignored (``num_reducers``, metric, split size and pivot
    seed apply); ``num_pivots`` is the number of Voronoi cells the dataset is
    partitioned into.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    if num_pivots < 1:
        raise ValueError("num_pivots must be >= 1")
    graph = JobGraph("range-selection")
    # out-of-core configs stage the annotated input on disk, so even the
    # single-job operator's input splits decode in the map workers
    dfs = graph.resource(config.chain_dfs())
    state: dict = {}

    def build_select(ctx):
        metric = get_metric(config.metric_name)
        state["metric"] = metric
        rng = np.random.default_rng(config.seed)
        rows = rng.choice(
            len(dataset), size=min(num_pivots, len(dataset)), replace=False
        )
        partitioner = VoronoiPartitioner(dataset.points[rows], metric)
        assignment = partitioner.assign(dataset)
        ring_stats: dict[int, tuple[float, float]] = {}
        for pid in range(partitioner.num_partitions):
            cell_rows = assignment.rows_of(pid)
            if cell_rows.size:
                dists = assignment.pivot_distances[cell_rows]
                ring_stats[pid] = (float(dists.min()), float(dists.max()))

        # assign queries to reducers; precompute their pivot distances
        queries_by_reducer: dict[int, list[tuple[int, np.ndarray]]] = {}
        for row in range(len(queries)):
            reducer = row % config.num_reducers
            queries_by_reducer.setdefault(reducer, []).append(
                (int(queries.ids[row]), queries.points[row])
            )
        query_pivot_dists = {
            reducer: metric.cross_distances(
                np.array([point for _, point in items]), partitioner.pivots
            )
            for reducer, items in queries_by_reducer.items()
        }

        # the input, annotated with cell + distance as one block of S rows in
        # the narrowest dtypes (cells not reachable by any query are dropped
        # at the mapper)
        block = dataset_block(dataset, ROLE_S)
        block.partition_ids = assignment.partition_ids.astype(
            cell_dtype(partitioner.num_partitions)
        )
        block.pivot_distances = assignment.pivot_distances

        job = MapReduceJob(
            name="range-selection",
            mapper_factory=RangeQueryRoutingMapper,
            reducer_factory=RangeQueryReducer,
            partitioner=ModPartitioner(),
            num_reducers=config.num_reducers,
            cache={
                "metric_name": config.metric_name,
                "theta": theta,
                "queries_by_reducer": queries_by_reducer,
                "query_pivot_dists": query_pivot_dists,
                "ring_stats": ring_stats,
            },
        )
        return job, chain_splits(config, dfs, "range-input", [(0, block)])

    select = graph.stage("range-selection/select", build_select)

    def assemble(run) -> RangeSelectionOutcome:
        job = run.result_of(select)
        matches = {query_id: ids for query_id, ids in job.outputs}
        # queries with zero reachable cells never reach a reducer: fill empties
        for row in range(len(queries)):
            matches.setdefault(int(queries.ids[row]), [])
        return RangeSelectionOutcome(
            matches=matches,
            shuffle_records=job.stats.shuffle_records,
            shuffle_bytes=job.stats.shuffle_bytes,
            distance_pairs=job.counters.value(PAIRS_GROUP, PAIRS_NAME)
            + state["metric"].pairs_computed,
            dataset_size=len(dataset),
            num_queries=len(queries),
        )

    return JoinPlan(graph=graph, assemble=assemble)


register_join(
    JoinSpec(
        name="range-selection",
        config_class=JoinConfig,
        plan=plan_range_selection,
        kind="operator",
        summary="distributed range selection (Definition 3) over the Voronoi substrate",
    )
)
