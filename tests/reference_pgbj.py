"""The per-cell PGBJ data flow, kept as the test-side reference.

Copies of the mappers the library shipped before a map task handled its split
as one block — the partitioning mapper that emitted one annotated block per
Voronoi cell and the routing mapper that looped over (cell, group) pairs, its
shipping rule now applied object by object and cell by cell
(:func:`shipping_rule`) —
plus the reducer that answered with one ``(r_id, (ids, dists))`` pair per R
object — carried forward to the row roles, so a self-join's object stays one
row of both roles in its own group.  ``src/`` holds only the block-per-task implementation;
``tests/test_pgbj_reference.py`` holds it equal to this one in results, every
counter, shuffle records and bytes, ``output_bytes`` and the row sequence each
reducer receives.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import numpy as np

from repro.core.bounds import rank_members
from repro.core.distance import get_metric
from repro.core.geometry import PRUNE_EPS, anchor_codes, anchor_intervals, anchor_reach
from repro.core.partition import VoronoiPartitioner
from repro.core.summary import build_partial_summary
from repro.joins import partition_job, pgbj
from repro.joins.base import PAIRS_GROUP, PAIRS_NAME, REPLICA_GROUP, REPLICA_NAME
from repro.joins.kernels import build_partition_blocks
from repro.joins.partition_job import CHANNEL_TR, CHANNEL_TS, SKIPPED_NAME
from repro.joins.registry import JoinPlan, execute_join_plan
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Context, Mapper
from repro.mapreduce.splits import cell_dtype
from repro.mapreduce.types import ROLE_R, ROLE_S, NeighborBlock, RecordBlock
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
        pids, dists, anchor_dists = self._partitioner.assign_points(block.points)
        for channel, mask in ((CHANNEL_TR, block.is_r), (CHANNEL_TS, block.is_s)):
            if mask.any():
                ctx.side_output(
                    channel,
                    build_partial_summary(pids[mask], dists[mask], anchor_dists=anchor_dists[mask]),
                )
        block.partition_ids = pids.astype(cell_dtype(self._partitioner.num_partitions))
        block.pivot_distances = dists.astype(np.float64, copy=False)
        block.anchor_codes = anchor_codes(anchor_dists, pids, dists, ctx.cache["code_rows"])
        computed = self._metric.pairs_computed
        roles = int(block.is_r.sum()) + int(block.is_s.sum())
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, computed)
        ctx.counters.incr(
            PAIRS_GROUP, SKIPPED_NAME, roles * self._partitioner.num_partitions - computed
        )
        for _, cell in block.split_by(block.partition_ids):
            yield 0, cell


class PerCellRoutingMapper(Mapper):
    """One block per (cell, group): per cell, each group's rows with their
    role there — R in the own group, S in every group the shipping rule
    admits — a row of both roles staying one."""

    def setup(self, ctx: Context) -> None:
        self._partition_to_group: dict[int, int] = ctx.cache["partition_to_group"]
        self._members: dict[int, list[int]] = {}
        for pid, group in sorted(self._partition_to_group.items()):
            self._members.setdefault(group, []).append(pid)
        self._num_groups = len(ctx.cache["ranked_members"][1]) - 1
        self._cache = ctx.cache

    def map(self, key, value, ctx: Context):
        for pid, cell in value.split_by(value.partition_ids):
            own_group = self._partition_to_group.get(pid)
            admits = shipping_rule(self._cache, pid, cell)
            for group_index in range(self._num_groups):
                members = self._members.get(group_index, ())
                admitted = np.array(
                    [
                        bool(is_s) and any(admits(row, i) for i in members)
                        for row, is_s in enumerate(cell.is_s)
                    ],
                    dtype=bool,
                )
                r_bit = cell.is_r if group_index == own_group else False
                roles = np.where(r_bit, ROLE_R, 0) | np.where(admitted, ROLE_S, 0)
                rows = np.flatnonzero(roles)
                if not rows.size:
                    continue
                ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME, int(admitted.sum()))
                routed = cell.take(rows)
                routed.role = roles[rows].astype(np.uint8)
                yield group_index, routed


def shipping_rule(cache: dict, pid: int, cell: RecordBlock):
    """``admits(row, i)``: the shipping rule for one S object of ``cell``
    (all in Voronoi cell ``pid``) and one R cell ``i``, object by object in
    Python floats: Theorem 5 for that one cell, ``|s, p_j| >= |p_j, p_i| -
    U_i - theta_i``, and no anchor's gap between the object's decoded range
    of ``|s, a|`` and the cell's hull above ``theta_i``."""
    pdm = cache["pivot_dist_matrix"]
    uppers, thetas = cache["uppers"], cache["thetas"]
    hull_lo, hull_hi = cache["anchor_hulls"]
    mids, radius = anchor_intervals(
        cell.anchor_codes, np.full(len(cell), pid), cell.pivot_distances,
        pdm[cache["code_anchors"]],
    )
    reach = anchor_reach(mids, radius)

    def admits(row: int, i: int) -> bool:
        dist = float(cell.pivot_distances[row])
        if not dist >= float(pdm[pid, i]) - uppers[i] - thetas[i] - PRUNE_EPS:
            return False
        gap = max(
            max(float(mid) - float(hi), float(lo) - float(mid))
            for mid, lo, hi in zip(mids[:, row], hull_lo[:, i], hull_hi[:, i])
        )
        return gap - float(reach[row]) <= thetas[i] + PRUNE_EPS

    return admits


def _report_input(key, values, ctx: Context) -> RecordBlock:
    block = RecordBlock.gather(values)
    ctx.side_output(
        CHANNEL_REDUCE_INPUT,
        (key, block.role.tobytes(), block.object_ids.tobytes(), block.partition_ids.tobytes()),
    )
    return block


class RecordingJoinReducer(pgbj.PgbjJoinReducer):
    """The library's reducer, reporting the row sequence it was handed."""

    def reduce(self, key, values, ctx: Context):
        return super().reduce(key, [_report_input(key, values, ctx)], ctx)


class RowOutputJoinReducer(pgbj.PgbjJoinReducer):
    """One ``(r_id, (ids, dists))`` pair per R object (and the same report)."""

    def reduce(self, key, values, ctx: Context):
        r_blocks, s_blocks = build_partition_blocks(_report_input(key, values, ctx))
        if not r_blocks:
            return
        for r_id, ids, dists in self.kernel(r_blocks, s_blocks):
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
                partitioned.role,
                partitioned.object_ids,
                partitioned.points,
                partitioned.payloads,
                partitioned.partition_ids,
                partitioned.pivot_distances,
                partitioned.anchor_codes,
            )
        ],
        "reduce_input": {
            key: rows for key, *rows in job2.side_outputs.get(CHANNEL_REDUCE_INPUT, [])
        },
        # not part of the contract: how many values crossed, what the spill
        # wrote, and which stages a plan cache served
        "blocks": [len(job1.outputs), job2.stats.spill_segments],
        "served": run.cached_stage_names(),
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


def routing_cache(rng, partition_to_group: dict[int, int], groups: int, anchors: int = 3) -> dict:
    """A random, self-consistent job cache for the routing mappers alone:
    pivots in the unit square, each cell's ``U_i`` and ``theta_i`` and an
    anchor hull of its own, the first ``anchors`` pivots as code anchors —
    drawn so that both tests of the shipping rule admit some copies and
    refuse others."""
    cells = 1 + max(partition_to_group)
    pivots = rng.random((cells, 2))
    pdm = np.sqrt(((pivots[:, None] - pivots[None]) ** 2).sum(axis=2))
    uppers, thetas = rng.random((2, cells)) * 0.3
    lo = rng.random((anchors, cells))
    members = [
        sorted(cell for cell, group in partition_to_group.items() if group == index)
        for index in range(groups)
    ]
    return {
        "partition_to_group": partition_to_group,
        "pivot_dist_matrix": pdm,
        "code_anchors": np.arange(anchors),
        "uppers": dict(enumerate(uppers.tolist())),
        "thetas": dict(enumerate(thetas.tolist())),
        "cell_bounds": np.stack([uppers, thetas]),
        "anchor_hulls": (lo, lo + rng.random((anchors, cells)) * 0.5),
        "ranked_members": rank_members(pdm - uppers - thetas, members, np.int8),
    }
