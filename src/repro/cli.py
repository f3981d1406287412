"""Command-line interface: run joins and reproduce the paper's exhibits.

Examples::

    repro info
    repro --list-algorithms
    repro join --algorithm pgbj --dataset forest --objects 2000 --k 10
    repro bench fig8
    repro bench all --results-dir results

The ``--algorithm`` choices and the dispatch both come from the join
registry (:func:`repro.joins.available_joins`): registering a new algorithm
makes it runnable here with no CLI change.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench import (
    ablation_cost_model_experiment,
    ablation_pruning_experiment,
    dimensionality_experiment,
    effect_of_k_experiment,
    fig6_fig7_experiment,
    scalability_experiment,
    speedup_experiment,
    table2_experiment,
    table3_experiment,
)
from repro.bench.harness import DEFAULTS, bench_scale, default_cluster
from repro.datasets import expand_dataset, generate_forest, generate_osm
from repro.joins import available_joins, get_join, run_join
from repro.joins.kernel_providers import available_kernel_providers
from repro.mapreduce import (
    CHAOS_ENV,
    DEFAULT_ENGINE,
    SEGMENT_CODECS,
    ChaosPlan,
    available_engines,
)

__all__ = ["main"]

#: exhibit name -> zero-argument callable returning ExperimentResult(s)
EXHIBITS = {
    "table2": table2_experiment,
    "table3": table3_experiment,
    "fig6": fig6_fig7_experiment,  # fig6 and fig7 share one sweep
    "fig7": fig6_fig7_experiment,
    "fig8": lambda: effect_of_k_experiment("forest"),
    "fig9": lambda: effect_of_k_experiment("osm"),
    "fig10": dimensionality_experiment,
    "fig11": scalability_experiment,
    "fig12": speedup_experiment,
    "ablation_pruning": ablation_pruning_experiment,
    "ablation_cost_model": ablation_cost_model_experiment,
}

#: exhibits run by `repro bench all`, deduplicated (fig6 covers fig7)
ALL_ORDER = (
    "table2",
    "table3",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablation_pruning",
    "ablation_cost_model",
)


def _env_flag(name: str) -> bool:
    """A REPRO_* on/off env default for a CLI switch."""
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient Processing of kNN Joins using "
            "MapReduce' (VLDB 2012)"
        ),
    )
    parser.add_argument(
        "--list-algorithms",
        action="store_true",
        help="list every registered join algorithm/operator and exit",
    )
    parser.add_argument(
        "--list-engines",
        action="store_true",
        help="list the registered execution engines and exit",
    )
    parser.add_argument(
        "--list-kernel-providers",
        action="store_true",
        help=(
            "list the kernel providers with their availability in this "
            "environment and exit"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="show version, defaults and bench scale")

    join = sub.add_parser("join", help="run one kNN join and print its measurements")
    join.add_argument(
        "--algorithm",
        # the registry is the single source of what is runnable here
        choices=list(available_joins(kind="knn")),
        default="pgbj",
    )
    join.add_argument("--dataset", choices=["forest", "osm"], default="forest")
    join.add_argument("--objects", type=int, default=2000)
    join.add_argument("--k", type=int, default=10)
    join.add_argument("--num-reducers", type=int, default=DEFAULTS["num_reducers"])
    join.add_argument("--num-pivots", type=int, default=DEFAULTS["num_pivots"])
    join.add_argument(
        "--pivot-selection", choices=["random", "farthest", "kmeans"], default="random"
    )
    join.add_argument("--grouping", choices=["geometric", "greedy"], default="geometric")
    join.add_argument("--seed", type=int, default=0)
    join.add_argument(
        "--engine",
        choices=list(available_engines()),
        default=DEFAULT_ENGINE,
        help=(
            "task execution backend for the MapReduce jobs; the *-pooled "
            "engines keep one warm worker pool across all jobs of the join"
        ),
    )
    join.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for parallel engines (default: CPU count)",
    )
    join.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "enable the out-of-core spill shuffle: each map task buffers at "
            "most this many (estimated) bytes of output before writing a "
            "sorted segment run to disk; reducers stream a k-way external "
            "merge.  Results and accounting are identical to the in-memory "
            "default"
        ),
    )
    join.add_argument(
        "--spill-dir",
        default=None,
        help="directory for shuffle segment files (default: system temp)",
    )
    join.add_argument(
        "--spill-codec",
        choices=list(SEGMENT_CODECS),
        default=os.environ.get("REPRO_SPILL_CODEC", "none"),
        help=(
            "compress spilled segment value payloads (implies the spill "
            "shuffle backend); accounting stays identical to uncompressed.  "
            "Default from REPRO_SPILL_CODEC"
        ),
    )
    join.add_argument(
        "--kernel-provider",
        choices=["numpy", "numba", "auto"],
        default=os.environ.get("REPRO_KERNEL_PROVIDER", "auto"),
        help=(
            "hot-loop kernel implementation: 'numpy' (portable oracle), "
            "'numba' (JIT-compiled; falls back to numpy with a warning when "
            "the library is missing), or 'auto' (per-call choice by batch "
            "shape).  Results are bit-identical across providers.  Default "
            "from REPRO_KERNEL_PROVIDER"
        ),
    )
    join.add_argument(
        "--no-plan-concurrency",
        action="store_true",
        help=(
            "schedule the join's plan stages strictly sequentially (the "
            "historical driver order) instead of overlapping independent "
            "stages; results are bit-identical either way"
        ),
    )
    join.add_argument(
        "--chaos-spec",
        default=os.environ.get(CHAOS_ENV),
        metavar="SPEC",
        help=(
            "inject deterministic faults, e.g. "
            "'crash:rate=0.2:attempt=1;corrupt:rate=0.1'.  Actions: crash, "
            "delay, kill (process engines), corrupt, delete.  Results stay "
            "bit-identical to a fault-free run.  Default from REPRO_CHAOS"
        ),
    )
    join.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="seed for the chaos plan's per-task coin flips (default 0 or "
        "the spec's own seed=N clause)",
    )
    join.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "absolute per-task deadline; a task running longer gets a "
            "speculative duplicate (parallel engines) and the first copy "
            "to finish wins"
        ),
    )
    join.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "persist each finished plan stage here; re-running the same "
            "join after a crash resumes from the last completed stage"
        ),
    )
    join.add_argument(
        "--explain",
        action="store_true",
        help=(
            "print the plan-time cost estimate (per-stage records, shuffle "
            "bytes, distance pairs, predicted seconds) and exit without "
            "running the join"
        ),
    )
    join.add_argument(
        "--calibrate",
        action="store_true",
        help=(
            "price --explain / --auto-tune with on-box measured primitive "
            "rates (sub-second microbench, cached to disk) instead of the "
            "deterministic built-in rates"
        ),
    )
    join.add_argument(
        "--auto-tune",
        action="store_true",
        default=_env_flag("REPRO_AUTO_TUNE"),
        help=(
            "let the cost model pick knobs left at their defaults "
            "(pivots, reducers, engine, fusion, skew splitting) for this "
            "dataset; explicitly set knobs are never overridden and results "
            "are bit-identical to the equivalent hand-tuned run.  Default "
            "from REPRO_AUTO_TUNE"
        ),
    )
    join.add_argument(
        "--fuse-stages",
        action="store_true",
        default=_env_flag("REPRO_STAGE_FUSION"),
        help=(
            "fuse map-only plan stages into their consumers (identity merge "
            "mappers skip their map pass; chained intermediates skip the "
            "DFS round-trip).  Results, counters and shuffle accounting are "
            "bit-identical.  Default from REPRO_STAGE_FUSION"
        ),
    )
    join.add_argument(
        "--plan-cache-dir",
        default=os.environ.get("REPRO_PLAN_CACHE_DIR"),
        metavar="DIR",
        help=(
            "persistent plan cache: content-keyed stage results are stored "
            "here in the segment wire format and reused across processes "
            "(atomic writes; corrupt files degrade to a miss).  Default "
            "from REPRO_PLAN_CACHE_DIR"
        ),
    )

    bench = sub.add_parser("bench", help="reproduce one exhibit (or `all`)")
    bench.add_argument("exhibit", choices=list(EXHIBITS) + ["all"])
    bench.add_argument("--results-dir", default="results")

    return parser


def _cmd_list_algorithms() -> int:
    for name in available_joins():
        spec = get_join(name)
        label = name if spec.kind == "knn" else f"{name} (operator)"
        print(f"{label:28s} {spec.summary}")
    return 0


def _cmd_list_engines() -> int:
    for engine in available_engines():
        suffix = " (default)" if engine == DEFAULT_ENGINE else ""
        print(f"{engine}{suffix}")
    return 0


def _cmd_list_kernel_providers() -> int:
    for name, (available, description) in available_kernel_providers().items():
        status = "available" if available else "unavailable"
        print(f"{name:8s} [{status}] {description}")
    return 0


def _cmd_info() -> int:
    from repro import __version__

    print(f"repro {__version__} — PGBJ kNN-join reproduction (VLDB 2012)")
    print(f"bench scale: {bench_scale()} (set REPRO_BENCH_SCALE to change)")
    print(f"engines: {', '.join(available_engines())} (default {DEFAULT_ENGINE})")
    print(f"algorithms: {', '.join(available_joins(kind='knn'))}")
    print(f"operators: {', '.join(available_joins(kind='operator'))}")
    print("bench defaults (paper values: the DEFAULTS comments in repro/bench/harness.py):")
    for key, value in DEFAULTS.items():
        print(f"  {key} = {value}")
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    if args.dataset == "forest":
        base = generate_forest(max(args.objects // 10, 10), seed=args.seed)
        data = expand_dataset(base, 10)
    else:
        data = generate_osm(args.objects, seed=args.seed)
    spec = get_join(args.algorithm)
    chaos = (
        ChaosPlan.from_spec(args.chaos_spec, seed=args.chaos_seed)
        if args.chaos_spec
        else None
    )
    # the spec filters this union of knobs down to what its config accepts
    knobs = dict(
        k=args.k,
        num_reducers=args.num_reducers,
        seed=args.seed,
        engine=args.engine,
        max_workers=args.workers,
        memory_budget=args.memory_budget,
        spill_dir=args.spill_dir,
        spill_codec=args.spill_codec,
        kernel_provider=args.kernel_provider,
        plan_concurrency=not args.no_plan_concurrency,
        num_pivots=args.num_pivots,
        pivot_selection=args.pivot_selection,
        grouping=args.grouping,
        chaos=chaos,
        task_timeout=args.task_timeout,
        checkpoint_dir=args.checkpoint_dir,
        auto_tune=args.auto_tune,
        stage_fusion=args.fuse_stages,
        plan_cache_dir=args.plan_cache_dir,
    )
    if args.auto_tune:
        # the tuner only moves knobs still at their *config* defaults; drop
        # the flags the user left at the CLI defaults so they stay tunable
        for knob in ("num_reducers", "num_pivots"):
            if getattr(args, knob) == DEFAULTS[knob]:
                knobs.pop(knob)
    config = spec.make_config(**knobs)
    if args.explain:
        from repro.joins.autotune import auto_tune_config, explain_join

        if args.auto_tune:
            choice = auto_tune_config(
                spec.name, data, data, config, calibrated=args.calibrate
            )
            print(choice.describe())
            print(choice.estimate.explain())
        else:
            print(explain_join(
                spec.name, data, data, config, calibrated=args.calibrate
            ).explain())
        return 0
    if args.auto_tune:
        from repro.joins.autotune import auto_tune_config

        choice = auto_tune_config(
            spec.name, data, data, config, calibrated=args.calibrate
        )
        print(choice.describe())
        config = choice.config
    outcome = run_join(spec.name, data, data, config)
    cluster = default_cluster(args.num_reducers)
    print(f"algorithm            : {outcome.algorithm}")
    print(f"engine               : {args.engine}"
          + (f" ({args.workers} workers)" if args.workers else ""))
    print(f"kernel provider      : {args.kernel_provider}")
    if args.spill_codec != "none":
        print(f"spill codec          : {args.spill_codec}")
    print(f"|R| = |S|            : {len(data)} ({data.name})")
    print(f"k                    : {args.k}")
    print(f"join output pairs    : {outcome.result.total_pairs()}")
    print(
        f"simulated seconds    : {outcome.simulated_seconds(cluster):.3f} "
        f"on {cluster.num_nodes} nodes"
    )
    print(f"computation selectivity: {outcome.selectivity() * 1000:.3f} per thousand")
    print(f"shuffling cost       : {outcome.shuffle_bytes() / 1e6:.3f} MB "
          f"({outcome.shuffle_records()} records)")
    if outcome.replication_of_s():
        print(f"avg replication of S : {outcome.avg_replication_of_s():.2f}")
    if outcome.spill_segments():
        print(f"spill activity       : {outcome.spill_segments()} segments, "
              f"{outcome.spill_bytes() / 1e6:.3f} MB on disk, "
              f"{outcome.merge_passes()} merge passes")
    robustness = (
        outcome.recovered_tasks()
        + outcome.speculative_wins()
        + outcome.checksum_failures()
        + outcome.spill_files_deleted()
    )
    if chaos is not None or robustness:
        print(f"fault tolerance      : {outcome.recovered_tasks()} tasks recovered, "
              f"{outcome.speculative_wins()} speculative wins, "
              f"{outcome.checksum_failures()} checksum failures, "
              f"{outcome.spill_files_deleted()} stale spill files removed")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    names = ALL_ORDER if args.exhibit == "all" else (args.exhibit,)
    for name in names:
        result = EXHIBITS[name]()
        records = result if isinstance(result, tuple) else (result,)
        for record in records:
            path = record.save(args.results_dir)
            print(record.show())
            print(f"[saved {path}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point (console script ``repro``)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_algorithms:
        return _cmd_list_algorithms()
    if args.list_engines:
        return _cmd_list_engines()
    if args.list_kernel_providers:
        return _cmd_list_kernel_providers()
    if args.command == "info":
        return _cmd_info()
    if args.command == "join":
        return _cmd_join(args)
    if args.command == "bench":
        return _cmd_bench(args)
    parser.error("a command is required (info, join or bench)")
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
