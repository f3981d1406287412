"""The per-record z-order join, kept as the test-side reference.

A copy of the row-at-a-time mapper, reducer and merge fold the library
shipped before the join went columnar, plus the Python-int Morton loop they
ran on, in the library's two-job shape: the first job runs every curve copy
but the last and keys each ``r``'s list under ``r``'s block of the last
copy; the second runs the last copy and folds those lists into its own.
``src/`` holds only the array-shaped implementation; ``tests/test_zorder.py``
holds it equal to this one — results, distance bytes, ``pairs_computed``, S
replicas, per-job shuffle records and bytes.

The shipping rule, a tuple per row: every object travels as one ``(role,
id, point, z)`` row per shift to the block its z-value falls in, an ``s``
also as an S-only row to a neighbouring block it lies near.  In a
self-join (``r is s``) the own-block row carries both role bits, so each
object is one row per shift there; an R ≠ S join ships an R row and an S
row apart.  A reducer computes each unordered pair of different rows its
windows hold once, whichever row asks first, and a row's own entry not at
all: in a self-join the window row of a pair often asks for the asker too.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.core.distance import get_metric
from repro.core.knn import KBestList
from repro.core.result import KnnJoinResult
from repro.core.zorder import ZOrderTransform
from repro.joins import zorder
from repro.joins.base import PAIRS_GROUP, PAIRS_NAME, REPLICA_GROUP, REPLICA_NAME
from repro.mapreduce import LocalRuntime, split_records
from repro.mapreduce.job import Context, Mapper, MapReduceJob, Reducer
from repro.mapreduce.partitioners import ModPartitioner
from repro.mapreduce.splits import dataset_splits, id_dtype, self_join_splits
from repro.mapreduce.types import ROLE_R, ROLE_S, RecordBlock


def int_z_values(transform: ZOrderTransform, points: np.ndarray) -> list[int]:
    """Morton codes as Python ints: bit ``b`` of dimension ``d`` lands at
    position ``b * dims + d``, one ``|=`` per set bit."""
    cells = transform.quantize(points)
    num_objects, dims = cells.shape
    codes = [0] * num_objects
    for bit in range(transform.bits):
        for dim in range(dims):
            bit_values = (cells[:, dim] >> bit) & 1
            shift = bit * dims + dim
            for row in np.flatnonzero(bit_values):
                codes[row] |= 1 << shift
    return codes


class RowRoutingMapper(Mapper):
    """Routes one ``(role, id, point, z)`` tuple per object and target block
    of the job's curve copies, a row of the gathered input block at a time;
    a healing copy is S only.  A candidate list an earlier job keyed passes
    through under its key."""

    def setup(self, ctx: Context) -> None:
        self._shifts = ctx.cache["shifts"]
        self._transform = ctx.cache["transform"]
        self._boundaries = ctx.cache["boundaries"]
        self._blocks_per_shift = int(ctx.cache["blocks_per_shift"])
        self._margins = ctx.cache["margins"]
        self._buffer: list = []

    def _block_of(self, shift_index: int, z_value: int) -> int:
        return bisect.bisect_right(self._boundaries[shift_index], z_value)

    def map(self, key, value, ctx: Context):
        if not isinstance(value, RecordBlock):
            yield key, value
            return
        self._buffer.append(value)

    def cleanup(self, ctx: Context):
        blocks, self._buffer = self._buffer, []
        if not blocks:
            return
        gathered = RecordBlock.gather(blocks)
        rows = [
            (int(gathered.role[row]), int(gathered.object_ids[row]), gathered.points[row])
            for row in range(len(gathered))
        ]
        for shift_index in range(self._shifts.shape[0]):
            z_values = int_z_values(self._transform, gathered.points + self._shifts[shift_index])
            for (role, object_id, point), z_value in zip(rows, z_values):
                block = self._block_of(shift_index, z_value)
                reducer_key = shift_index * self._blocks_per_shift + block
                yield reducer_key, (role, object_id, point, z_value)
                if not role & ROLE_S:
                    continue
                ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME)
                for neighbor in (block - 1, block + 1):
                    if 0 <= neighbor < self._blocks_per_shift and self._near_boundary(
                        shift_index, z_value, neighbor
                    ):
                        ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME)
                        yield (
                            shift_index * self._blocks_per_shift + neighbor,
                            (ROLE_S, object_id, point, z_value),
                        )

    def _near_boundary(self, shift_index: int, z_value: int, neighbor: int) -> bool:
        boundaries = self._boundaries[shift_index]
        margin = self._margins[shift_index]
        if neighbor < self._block_of(shift_index, z_value):
            return z_value - boundaries[neighbor] <= margin
        return boundaries[neighbor - 1] - z_value <= margin


class RowJoinReducer(Reducer):
    """Per (shift, block): one bisect and one distance call per ``r``.

    With ``last`` (the last curve copy's shift and boundaries) each ``r``'s
    list leaves as ``(r's block of that copy, (r_id, ids, dists))``; without
    it, the reducer runs the last copy and folds the lists that arrived
    under its key into ``(r_id, (ids, dists))`` final lists."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._per_side = int(ctx.cache["candidates_per_side"])
        self._id_dtype = ctx.cache["id_dtype"]
        self._transform = ctx.cache["transform"]
        self._last = ctx.cache["last"]

    def reduce(self, key, values, ctx: Context):
        r_items, s_items = [], []
        lists_of: dict[int, list] = {}
        for row, value in enumerate(values):
            if len(value) == 3:  # an earlier copy's list
                r_id, ids, dists = value
                lists_of.setdefault(r_id, []).append((ids, dists))
                continue
            role, oid, point, z = value
            if role & ROLE_R:
                r_items.append((z, oid, point, row))
            if role & ROLE_S:
                s_items.append((z, oid, point, row))
        for r_id, point, ids, dists in self._windows(r_items, s_items):
            if self._last is None:
                lists_of.setdefault(r_id, []).append((ids, dists))
            else:
                shift, boundaries = self._last
                z_value = int_z_values(self._transform, point[None, :] + shift)[0]
                yield bisect.bisect_right(boundaries, z_value), (r_id, ids, dists)
        for r_id, lists in lists_of.items():
            yield r_id, row_merge(lists, self._k)

    def _windows(self, r_items, s_items):
        """``(r_id, point, ids, dists)``: the k best of each ``r``'s window."""
        if not r_items or not s_items:
            return
        s_items.sort(key=lambda item: (item[0], item[1]))
        s_z = [item[0] for item in s_items]
        # the lists ship their ids in the join's id dtype, as the library's do
        s_ids = np.array([item[1] for item in s_items], dtype=self._id_dtype)
        s_points = np.array([item[2] for item in s_items], dtype=np.float64)
        s_rows = [item[3] for item in s_items]
        # (smaller row, larger row) -> distance: each unordered pair of rows
        # is computed once, whichever of them asks first
        known: dict[tuple[int, int], float] = {}
        for z_value, r_id, r_point, r_row in r_items:
            center = bisect.bisect_left(s_z, z_value)
            start = max(0, center - self._per_side)
            stop = min(len(s_items), center + self._per_side)
            if start >= stop:
                continue
            # a row of both roles meets itself at 0.0, uncomputed
            pairs = [tuple(sorted((r_row, s_rows[i]))) for i in range(start, stop)]
            new = [
                i
                for i, pair in zip(range(start, stop), pairs)
                if pair[0] != pair[1] and pair not in known
            ]
            for i, dist in zip(new, self._metric.distances(r_point, s_points[new])):
                known[pairs[i - start]] = dist
            dists = np.array([known.get(pair, 0.0) for pair in pairs])
            order = np.lexsort((s_ids[start:stop], dists))[: self._k]
            yield r_id, r_point, s_ids[start:stop][order], dists[order]

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


def row_merge(lists, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best of one ``r``'s ``(ids, dists)`` lists, a candidate at a time."""
    best_of: dict[int, float] = {}
    for ids, dists in lists:
        for object_id, dist in zip(ids.tolist(), dists.tolist()):
            previous = best_of.get(object_id)
            if previous is None or dist < previous:
                best_of[object_id] = dist
    kbest = KBestList(k)
    kbest.update(
        np.fromiter(best_of.values(), dtype=np.float64, count=len(best_of)),
        np.fromiter(best_of.keys(), dtype=np.int64, count=len(best_of)),
    )
    return kbest.as_arrays()


def run_reference_zorder(r, s, config) -> dict:
    """The historical driver, reshaped to the library's two jobs (curve
    copies ``0 … num_shifts − 2``, then the last copy folding their lists),
    on the serial in-memory runtime, reduced to the facts the columnar join
    must reproduce."""
    rng = np.random.default_rng(config.seed)
    stacked = np.vstack([r.points, s.points])
    # one side for every dimension, as ``plan_zorder`` draws it
    side = max(float(np.max(stacked.max(axis=0) - stacked.min(axis=0))), 1e-9)
    shifts = np.vstack(
        [np.zeros(r.dimensions)]
        + [rng.random(r.dimensions) * side * 0.25 for _ in range(config.num_shifts - 1)]
    )
    transform = ZOrderTransform.for_points(stacked, bits=zorder.CURVE_BITS, padding=0.3)
    blocks_per_shift = max(1, config.num_reducers // config.num_shifts)
    sample_rows = rng.choice(
        len(s), size=min(zorder.BOUNDARY_SAMPLE_SIZE, len(s)), replace=False
    )
    join_ids = id_dtype(r.ids, s.ids)
    boundaries, margins = [], []
    for shift_index in range(config.num_shifts):
        sample_z = sorted(int_z_values(transform, s.points[sample_rows] + shifts[shift_index]))
        boundaries.append(
            [
                sample_z[int(len(sample_z) * q / blocks_per_shift)]
                for q in range(1, blocks_per_shift)
            ]
        )
        gaps = [b - a for a, b in zip(sample_z, sample_z[1:])] or [0]
        margins.append(int(sorted(gaps)[len(gaps) // 2] * config.k))
    final = config.num_shifts - 1

    def copies_job(copies: slice) -> MapReduceJob:
        return MapReduceJob(
            name="zorder-join",
            mapper_factory=RowRoutingMapper,
            reducer_factory=RowJoinReducer,
            partitioner=ModPartitioner(),
            num_reducers=len(shifts[copies]) * blocks_per_shift,
            cache={
                "shifts": shifts[copies],
                "transform": transform,
                "boundaries": boundaries[copies],
                "margins": margins[copies],
                "blocks_per_shift": blocks_per_shift,
                "metric_name": config.metric_name,
                "k": config.k,
                "candidates_per_side": config.candidates_per_side or config.k,
                "id_dtype": join_ids,
                "last": None if copies.stop > final else (shifts[final], boundaries[final]),
            },
        )

    with LocalRuntime() as runtime:
        splits = (
            self_join_splits(r, config.split_size)
            if r is s
            else dataset_splits(r, s, config.split_size)
        )
        jobs, lists = [], []
        if final:
            jobs.append(runtime.run(copies_job(slice(0, final)), splits))
            lists = jobs[0].outputs
            splits = splits + split_records(lists, config.split_size)
        jobs.append(runtime.run(copies_job(slice(final, final + 1)), splits))
    result = KnnJoinResult(config.k)
    for r_id, (ids, dists) in jobs[-1].outputs:
        result.add(r_id, ids, dists)
    # a columnar row (role, id of the join's width w, point, int8 cell id,
    # pivot distance) is 22 - w bytes under this tuple's (frame, 8-byte
    # role, 8-byte id, point, 8-byte z); a list ships its r id in the key's
    # place, 8 bytes under this ``(r_id, ids, dists)`` tuple
    listed = [0] * (len(jobs) - 1) + [len(lists)]
    return {
        "neighbors": result_bytes(result),
        "pairs_computed": sum(job.counters.value(PAIRS_GROUP, PAIRS_NAME) for job in jobs),
        "s_replicas": sum(job.counters.value(REPLICA_GROUP, REPLICA_NAME) for job in jobs),
        "shuffle_records": [job.stats.shuffle_records for job in jobs],
        "shuffle_bytes": [
            job.stats.shuffle_bytes
            - (22 - join_ids.itemsize) * (job.stats.shuffle_records - count)
            - 8 * count
            for job, count in zip(jobs, listed)
        ],
    }


def result_bytes(result: KnnJoinResult) -> dict[int, tuple[bytes, bytes]]:
    """``r_id -> (id bytes, distance bytes)``: equality is bit equality."""
    return {
        r_id: tuple(column.tobytes() for column in result.neighbors_of(r_id))
        for r_id in result.r_ids()
    }


def outcome_facts(outcome) -> dict:
    """A library ``JoinOutcome`` in :func:`run_reference_zorder`'s terms."""
    return {
        "neighbors": result_bytes(outcome.result),
        "pairs_computed": outcome.counters.value(PAIRS_GROUP, PAIRS_NAME),
        "s_replicas": outcome.replication_of_s(),
        "shuffle_records": [stats.shuffle_records for stats in outcome.job_stats],
        "shuffle_bytes": [stats.shuffle_bytes for stats in outcome.job_stats],
    }
