"""Per-layer metrics: where the span wrappers go, the join run stage by stage
through the public API so each stage can be bracketed, and the arithmetic that
turns spans + ``JobStats`` + counters into the numbers ``BENCHMARK.json`` names.

Metric names start with the module of the layer they measure.  A time is the
inclusive seconds of that layer's spans in one join unless its definition in
README.md says otherwise.
"""

from __future__ import annotations

import resource
import time
from contextlib import ExitStack

from repro.core import distance as core_distance
from repro.core import partition as core_partition
from repro.joins import kernel_providers, partition_job, plan_join
from repro.mapreduce import engines, hdfs, plan, runtime, serialization, shuffle, splits

from .spans import Patcher, Recorder, SpanSummary, timed_iterator

__all__ = ["UMBRELLA", "WORKER_SIDE", "install_spans", "layer_metrics", "traced_join"]

#: spans that only group others; their self time is glue nobody is named for
UMBRELLA = ("trace.join", "plan.execute")

#: metrics measured by wrappers that run where the tasks run: on a
#: process-based engine that is another process, so they are not available
WORKER_SIDE = frozenset(
    {
        "partition_job.assign_s",
        "shuffle.spill_add_s",
        "shuffle.spill_write_s",
        "shuffle.merge_read_s",
        "serialization.encode_s",
        "serialization.decode_s",
        "serialization.encode_mb_per_s",
        "serialization.decode_mb_per_s",
        "hdfs.read_s",
        "kernels.knn_join_s",
        "kernels.distance_s",
        "kernels.select_s",
        "kernels.morton_s",
        "kernels.pairs_per_s",
        "kernels.numba_fallbacks",
        "runtime.overhead_s",
        "trace.unaccounted_share",
    }
)


def _batch_label(self, fn, shared, payloads):
    return f"engines.batch.{getattr(payloads[0], 'kind', 'task')}" if payloads else "engines.batch"


def install_spans(patcher: Patcher) -> None:
    """Put a wrapper on every layer boundary listed in the README table."""
    fn, method = patcher.function, patcher.method
    fn(splits, "dataset_splits", "splits.dataset_splits")
    fn(partition_job, "merge_summaries", "summary.merge")
    method(plan.StageContext, "timed", lambda self, phase: f"master.{phase}", kind="context")
    method(plan.PlanScheduler, "execute", "plan.execute")
    method(runtime.LocalRuntime, "run", "runtime.run")
    method(runtime.LocalRuntime, "run_premapped", "runtime.run")
    method(engines.Executor, "run_tasks", _batch_label)
    method(engines.Executor, "submit_batch", _batch_label, kind="batch")
    method(core_partition.VoronoiPartitioner, "assign_points", "partition_job.assign")
    method(shuffle.ShuffleStore, "plan_reduce", "shuffle.plan_reduce")
    method(shuffle.SpillMapWriter, "add", "shuffle.spill_add")
    method(shuffle.SpillMapWriter, "finish", "shuffle.spill_add")
    fn(shuffle, "write_segment", "shuffle.spill_write")
    fn(
        shuffle,
        "merged_segment_groups",
        "shuffle.merge_read",
        kind="generator",
        # a group's values are read while the reducer consumes them
        wrap_item=lambda group: (
            group[0],
            timed_iterator(patcher.recorder, "shuffle.merge_read", group[1]),
        ),
    )
    fn(
        serialization,
        "encode_record_block",
        "serialization.encode",
        counter=lambda args, result: len(result),
    )
    fn(
        serialization,
        "decode_record_block",
        "serialization.decode",
        counter=lambda args, result: len(args[0]),
    )
    fn(serialization, "estimate_bytes", "serialization.estimate_bytes", home=False)
    method(
        hdfs.DistributedFileSystem,
        "put",
        "hdfs.put",
        counter=lambda args, result: len(result.chunks),
    )
    method(hdfs.SegmentChunk, "__iter__", "hdfs.read", kind="generator")
    for attribute in ("distances", "pair_distances", "cross_distances"):
        method(core_distance.Metric, attribute, "kernels.distance")
    method(kernel_providers.KernelProvider, "knn_join_kernel", "kernels.knn_join", kind="generator")
    method(kernel_providers.KernelProvider, "morton_codes", "kernels.morton")


def _cpu_seconds() -> float:
    """CPU of this process plus its reaped children (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def traced_join(workload, r, s, config, recorder: Recorder) -> tuple[object, dict]:
    """One join, stage by stage through the public API (what ``run_join``
    does with no plan cache and no checkpoints), each stage in a span."""
    fallbacks = _numba_fallbacks()
    cpu_started = _cpu_seconds()
    with recorder.span("trace.join") as root:
        with recorder.span("registry.plan_build"):
            join_plan = plan_join(workload.join, r, s, config)
        stack = ExitStack()
        try:
            with recorder.span("runtime.lifecycle"):
                job_runtime = stack.enter_context(config.make_runtime())
                for held in join_plan.graph.resources:
                    stack.enter_context(held)
            scheduler = plan.PlanScheduler(
                job_runtime,
                cache=None,
                concurrent=config.plan_concurrency,
                checkpoint_dir=None,
            )
            run = scheduler.execute(join_plan.graph)
        finally:
            # pool shutdown and spill-dir removal are part of what a join costs
            with recorder.span("runtime.lifecycle"):
                stack.close()
        with recorder.span("registry.assemble"):
            outcome = join_plan.assemble(run)
    facts = {
        "wall_s": root[0][2] - root[0][1],
        "cpu_s": _cpu_seconds() - cpu_started,
        "stage_wall_s": sum(execution.wall_seconds for execution in run.executions),
        "stages": len(run.executions),
        "numba_fallbacks": _numba_fallbacks() - fallbacks,
        "workers": config.max_workers or 1,
        "process_based": bool(job_runtime.executor.process_based),
    }
    return outcome, facts


def _numba_fallbacks() -> int:
    return kernel_providers.fallback_count("auto") + kernel_providers.fallback_count("numba")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    workload, outcome, facts: dict, spans: SpanSummary, untraced_wall_s: float
) -> dict:
    """Every per-layer metric of one traced join, after the clocked median of
    the untraced joins it alternated with.  ``None`` means not available on
    this workload (a worker-side span on a process engine)."""
    stats = outcome.job_stats
    by_name = stats.as_dict()
    all_tasks = [task for job in stats for task in job.map_tasks + job.reduce_tasks]
    map_task_s = sum(job.total_map_seconds() for job in stats)
    reduce_task_s = sum(job.total_reduce_seconds() for job in stats)
    task_s = map_task_s + reduce_task_s
    wall = facts["wall_s"]
    phases = outcome.master_phases
    master_s = sum(phases.values())
    run_s = spans.total("runtime.run")
    plan_reduce_s = spans.total("shuffle.plan_reduce")
    batch_wall_s = spans.total_prefix("engines.batch")
    workers = facts["workers"]
    knn_join_s = spans.total("kernels.knn_join")
    # the kernel's distance calls nest under the knn_join generator; zorder's
    # reducer calls the provider's distances() itself.  Voronoi assignment on
    # the map side also calls the metric, and belongs to partition_job.
    distance_s = spans.total("kernels.distance", not_under="partition_job.assign")
    spill_accounted = sum(job.shuffle_bytes for job in stats if job.spill_segments)
    partition = by_name.get(f"{workload.join}/partition")
    join_job = by_name.get("pgbj/join")
    accounted_s = sum(s for name, s in spans.self_s.items() if name not in UMBRELLA)
    metrics = {
        "join_wall_s": untraced_wall_s,
        "registry.plan_build_s": spans.total("registry.plan_build"),
        "registry.assemble_s": spans.total("registry.assemble"),
        "plan.execute_s": spans.total("plan.execute"),
        "plan.stage_wall_s": facts["stage_wall_s"],
        "plan.overhead_s": spans.total("plan.execute") - run_s - master_s,
        "plan.stages": facts["stages"],
        "pivots.select_s": phases.get("pivot_selection", 0.0),
        "summary.merge_s": phases.get("index_merging", 0.0),
        "grouping.group_s": phases.get("partition_grouping", 0.0),
        "pivots.distance_pairs": outcome.master_distance_pairs,
        "splits.dataset_splits_s": spans.total("splits.dataset_splits"),
        "splits.records": outcome.r_size + outcome.s_size,
        "partition_job.map_task_s": partition.total_map_seconds() if partition else 0.0,
        "partition_job.assign_s": spans.total("partition_job.assign"),
        "partition_job.records": (
            sum(task.input_records for task in partition.map_tasks) if partition else 0
        ),
        "runtime.run_s": run_s,
        "runtime.map_task_s": map_task_s,
        "runtime.reduce_task_s": reduce_task_s,
        "runtime.overhead_s": run_s - task_s - plan_reduce_s,
        "runtime.tasks": len(all_tasks),
        "runtime.attempts": sum(job.total_attempts() for job in stats),
        "runtime.reduce_skew": max(job.reduce_skew() for job in stats),
        "runtime.reduce_input_skew": max(job.reduce_input_skew() for job in stats),
        "engines.batch_wall_s": batch_wall_s,
        "engines.batches": spans.calls_prefix("engines.batch"),
        "engines.busy_share": _ratio(task_s, workers * batch_wall_s),
        "engines.dispatch_overhead_s": batch_wall_s - task_s / workers,
        "engines.cpu_over_wall": _ratio(facts["cpu_s"], wall),
        "engines.first_batch_s": next(
            (s for name, s in spans.first.items() if name.startswith("engines.batch")), 0.0
        ),
        "shuffle.records": outcome.shuffle_records(),
        "shuffle.bytes": outcome.shuffle_bytes(),
        "shuffle.spill_segments": outcome.spill_segments(),
        "shuffle.spill_bytes": outcome.spill_bytes(),
        "shuffle.merge_passes": outcome.merge_passes(),
        "shuffle.write_amplification": _ratio(outcome.spill_bytes(), spill_accounted),
        "shuffle.plan_reduce_s": plan_reduce_s,
        "shuffle.spill_add_s": spans.total("shuffle.spill_add")
        - spans.total("shuffle.spill_write", under="shuffle.spill_add"),
        "shuffle.spill_write_s": spans.total("shuffle.spill_write"),
        "shuffle.merge_read_s": spans.total("shuffle.merge_read"),
        "serialization.encode_s": spans.total("serialization.encode"),
        "serialization.decode_s": spans.total("serialization.decode"),
        "serialization.estimate_bytes_s": spans.total("serialization.estimate_bytes"),
        "serialization.encode_mb_per_s": _ratio(
            spans.counts.get("serialization.encode", 0) / 1e6, spans.total("serialization.encode")
        ),
        "serialization.decode_mb_per_s": _ratio(
            spans.counts.get("serialization.decode", 0) / 1e6, spans.total("serialization.decode")
        ),
        "hdfs.put_s": spans.total("hdfs.put"),
        "hdfs.read_s": spans.total("hdfs.read"),
        "hdfs.chunks": spans.counts.get("hdfs.put", 0),
        "kernels.knn_join_s": knn_join_s,
        "kernels.distance_s": distance_s,
        "kernels.select_s": max(
            0.0, knn_join_s - spans.total("kernels.distance", under="kernels.knn_join")
        ),
        "kernels.morton_s": spans.total("kernels.morton"),
        "kernels.distance_pairs": outcome.distance_pairs,
        "kernels.pairs_per_s": _ratio(
            outcome.distance_pairs - outcome.master_distance_pairs,
            distance_s + spans.total("partition_job.assign"),
        ),
        "kernels.numba_native": int(kernel_providers.available_kernel_providers()["numba"][0]),
        "kernels.numba_fallbacks": facts["numba_fallbacks"],
        "pgbj.route_map_task_s": join_job.total_map_seconds() if join_job else 0.0,
        "pgbj.s_replication": outcome.avg_replication_of_s(),
        "trace.wall_s": wall,
        "trace.unaccounted_share": 1.0 - _ratio(accounted_s, wall),
        "trace.overhead_share": _ratio(wall, untraced_wall_s) - 1.0,
    }
    if facts["process_based"]:
        for name in WORKER_SIDE:
            metrics[name] = None
    return metrics
