"""The per-cell PGBJ data flow, kept as the test-side reference.

Copies of the mappers the library shipped before a map task handled its split
as one block — the partitioning mapper that emitted one annotated block per
Voronoi cell and the routing mapper that looped over (cell, group) pairs —
plus the reducer that answered with one ``(r_id, (ids, dists))`` pair per R
object.  ``src/`` holds only the block-per-task implementation;
``tests/test_pgbj_reference.py`` holds it equal to this one in results, every
counter, shuffle records and bytes, ``output_bytes`` and the row sequence each
reducer receives.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import numpy as np

from repro.core.distance import get_metric
from repro.core.geometry import PRUNE_EPS
from repro.core.partition import VoronoiPartitioner
from repro.core.summary import build_partial_summary
from repro.joins import partition_job, pgbj
from repro.joins.base import PAIRS_GROUP, PAIRS_NAME, REPLICA_GROUP, REPLICA_NAME
from repro.joins.kernels import build_partition_blocks
from repro.joins.partition_job import CHANNEL_TR, CHANNEL_TS, SKIPPED_NAME
from repro.joins.registry import JoinPlan, execute_join_plan
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Context, Mapper
from repro.mapreduce.types import NeighborBlock, RecordBlock
from tests.reference_zorder import result_bytes

#: side channel on which the recording reducers report what they were handed
CHANNEL_REDUCE_INPUT = "reduce_input"


class PerCellPartitioningMapper(Mapper):
    """One annotated block per Voronoi cell, keyed by the cell id."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._partitioner = VoronoiPartitioner(
            ctx.cache["pivots"], self._metric, ctx.cache["anchors"]
        )
        self._buffer: list = []

    def map(self, key, value, ctx):
        self._buffer.append(value)
        return ()

    def cleanup(self, ctx: Context):
        if not self._buffer:
            return
        block = RecordBlock.gather(self._buffer)
        self._buffer = []
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
        ctx.counters.incr(
            PAIRS_GROUP, SKIPPED_NAME, len(block) * self._partitioner.num_partitions - computed
        )
        block.partition_ids = pids.astype(np.int64, copy=False)
        block.pivot_distances = dists.astype(np.float64, copy=False)
        yield from block.split_by(block.partition_ids)


class PerCellRoutingMapper(Mapper):
    """One block per (cell, group): a ``flatnonzero`` per admitted pair."""

    def setup(self, ctx: Context) -> None:
        self._partition_to_group: dict[int, int] = ctx.cache["partition_to_group"]
        self._lb_group: np.ndarray = ctx.cache["lb_group"]
        self._subkeys: dict[int, tuple[int, ...]] = ctx.cache.get("skew_subkeys") or {}

    def map(self, key, value, ctx: Context):
        block = value if isinstance(value, RecordBlock) else RecordBlock.gather([value])
        r_rows = np.flatnonzero(block.is_r)
        if r_rows.size:
            r_block = block.take(r_rows)
            for pid, sub in r_block.split_by(r_block.partition_ids):
                group_index = self._partition_to_group[pid]
                subkeys = self._subkeys.get(group_index)
                if subkeys is None:
                    yield group_index, sub
                else:
                    for lane, lane_block in sub.split_by(sub.object_ids % len(subkeys)):
                        yield subkeys[int(lane)], lane_block
        s_rows = np.flatnonzero(~block.is_r)
        if s_rows.size:
            s_block = block.take(s_rows)
            for pid, cell in s_block.split_by(s_block.partition_ids):
                admitted = (
                    cell.pivot_distances[:, None] >= self._lb_group[pid][None, :] - PRUNE_EPS
                )
                for group_index in range(admitted.shape[1]):
                    selected = np.flatnonzero(admitted[:, group_index])
                    if not selected.size:
                        continue
                    chosen = cell.take(selected)
                    for subkey in self._subkeys.get(group_index, (int(group_index),)):
                        ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME, int(selected.size))
                        yield int(subkey), chosen


def _report_input(key, values, ctx: Context) -> RecordBlock:
    block = RecordBlock.gather(values)
    ctx.side_output(
        CHANNEL_REDUCE_INPUT,
        (key, block.is_r.tobytes(), block.object_ids.tobytes(), block.partition_ids.tobytes()),
    )
    return block


class RecordingJoinReducer(pgbj.PgbjJoinReducer):
    """The library's reducer, reporting the row sequence it was handed."""

    def reduce(self, key, values, ctx: Context):
        return super().reduce(key, [_report_input(key, values, ctx)], ctx)


class RowOutputJoinReducer(pgbj.PgbjJoinReducer):
    """One ``(r_id, (ids, dists))`` pair per R object (and the same report)."""

    def reduce(self, key, values, ctx: Context):
        r_blocks, s_blocks = build_partition_blocks([_report_input(key, values, ctx)])
        if not r_blocks:
            return
        for r_id, ids, dists in self._provider.knn_join_kernel(
            self._metric,
            self._k,
            r_blocks,
            s_blocks,
            self._thetas,
            self._ring_stats,
            self._pivots,
            self._pdm,
            use_hyperplane_pruning=self._use_hyperplane,
            use_ring_pruning=self._use_ring,
            scratch=self._scratch,
        ):
            yield r_id, (ids, dists)


def pgbj_facts(r, s, config, reference: bool) -> dict:
    """One PGBJ run reduced to the facts both data flows must agree on.

    Planned and executed by the library (``plan_pgbj``, the config's runtime
    and shuffle backend); ``reference=True`` swaps in the per-cell mappers
    and the row-output reducer, ``False`` only the recording twin of the
    library's reducer.
    """
    swaps = (
        {
            (partition_job, "PartitioningMapper"): PerCellPartitioningMapper,
            (pgbj, "GroupRoutingMapper"): PerCellRoutingMapper,
            (pgbj, "PgbjJoinReducer"): RowOutputJoinReducer,
        }
        if reference
        else {(pgbj, "PgbjJoinReducer"): RecordingJoinReducer}
    )
    with ExitStack() as stack:
        for (module, name), replacement in swaps.items():
            stack.enter_context(mock.patch.object(module, name, replacement))
        plan = pgbj.plan_pgbj(r, s, config)
        run = execute_join_plan(JoinPlan(graph=plan.graph, assemble=lambda run: run), config)
    job1, job2 = (run.result_of(stage) for stage in plan.graph.stages)
    neighbors = {}
    for key, value in job2.outputs:
        lists = value.lists() if isinstance(value, NeighborBlock) else [(key, *value)]
        for r_id, ids, dists in lists:
            assert r_id not in neighbors
            neighbors[int(r_id)] = (ids.tobytes(), dists.tobytes())
    counters = Counters()
    counters.merge(job1.counters)
    counters.merge(job2.counters)
    partitioned = RecordBlock.gather(block for _, block in job1.outputs)
    return {
        "neighbors": neighbors,
        "counters": counters.as_dict(),
        "shuffle_records": [job1.stats.shuffle_records, job2.stats.shuffle_records],
        "shuffle_bytes": [job1.stats.shuffle_bytes, job2.stats.shuffle_bytes],
        "output_bytes": [job1.stats.output_bytes, job2.stats.output_bytes],
        "task_records": [
            [(task.input_records, task.output_records) for task in tasks]
            for job in (job1, job2)
            for tasks in (job.stats.map_tasks, job.stats.reduce_tasks)
        ],
        "partitioned": [
            column.tobytes()
            for column in (
                partitioned.is_r,
                partitioned.object_ids,
                partitioned.points,
                partitioned.payloads,
                partitioned.partition_ids,
                partitioned.pivot_distances,
            )
        ],
        "reduce_input": {
            key: rows for key, *rows in job2.side_outputs.get(CHANNEL_REDUCE_INPUT, [])
        },
        # not part of the contract: how many values crossed, and what the spill wrote
        "blocks": [len(job1.outputs), job2.stats.spill_segments],
    }


def outcome_facts(outcome) -> dict:
    """An unpatched ``run_join("pgbj", ...)`` outcome in :func:`pgbj_facts`'
    terms (the facts an assembled outcome still carries)."""
    return {
        "neighbors": result_bytes(outcome.result),
        "counters": outcome.counters.as_dict(),
        "shuffle_records": [stats.shuffle_records for stats in outcome.job_stats],
        "shuffle_bytes": [stats.shuffle_bytes for stats in outcome.job_stats],
        "output_bytes": [stats.output_bytes for stats in outcome.job_stats],
    }
