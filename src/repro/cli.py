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
from repro.joins import JoinConfig, available_joins, get_join, run_join
from repro.joins.base import Knob, config_knobs, execution_knobs, knob_table, knobs_from_env
from repro.mapreduce import DEFAULT_ENGINE, available_engines

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


def _join_knobs() -> tuple[Knob, ...]:
    """The execution knobs of every registered join's config: the base
    class's rows, plus any a subclass declares."""
    rows = {
        row.name: row
        for name in available_joins()
        for row in execution_knobs(get_join(name).config_class)
    }
    return tuple(rows.values())


def add_knob_flags(parser: argparse.ArgumentParser, rows: tuple[Knob, ...]) -> None:
    """One flag per knob row, defaulting to what the row's environment
    variable says; with neither given the value stays ``None`` and
    :func:`config_knobs` leaves the knob to the config field's default."""
    for row in rows:
        if row.is_switch:
            how = {"action": "store_const", "const": not row.default}
        else:
            how = {"type": row.type, "choices": row.choices or None}
        parser.add_argument(
            row.flag,
            dest=row.name,
            default=row.from_env(),
            help=row.help + (f" [default from {row.env}]" if row.env else ""),
            **how,
        )


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
        help="list every registered join algorithm and exit",
    )
    parser.add_argument(
        "--list-engines",
        action="store_true",
        help="list the registered execution engines and exit",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="show version, defaults and bench scale")

    join = sub.add_parser("join", help="run one kNN join and print its measurements")
    join.add_argument(
        "--algorithm",
        # the registry is the single source of what is runnable here
        choices=list(available_joins()),
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
    add_knob_flags(join, _join_knobs())
    bench = sub.add_parser("bench", help="reproduce one exhibit (or `all`)")
    bench.add_argument("exhibit", choices=list(EXHIBITS) + ["all"])
    bench.add_argument("--results-dir", default="results")

    return parser


def _cmd_list_algorithms() -> int:
    for name in available_joins():
        print(f"{name:10s} {get_join(name).summary}")
    return 0


def _cmd_list_engines() -> int:
    for engine in available_engines():
        suffix = " (default)" if engine == DEFAULT_ENGINE else ""
        print(f"{engine}{suffix}")
    return 0


def _cmd_info() -> int:
    from repro import __version__

    print(f"repro {__version__} — PGBJ kNN-join reproduction (VLDB 2012)")
    print(f"bench scale: {bench_scale()} (set REPRO_BENCH_SCALE to change)")
    print(f"engines: {', '.join(available_engines())} (default {DEFAULT_ENGINE})")
    print(f"algorithms: {', '.join(available_joins())}")
    print("bench defaults (paper values: the DEFAULTS comments in repro/bench/harness.py):")
    for key, value in DEFAULTS.items():
        print(f"  {key} = {value}")
    print("execution knobs (they never affect results; `in effect` reads the environment):")
    print(knob_table(JoinConfig(**knobs_from_env())))
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    if args.dataset == "forest":
        base = generate_forest(max(args.objects // 10, 10), seed=args.seed)
        data = expand_dataset(base, 10)
    else:
        data = generate_osm(args.objects, seed=args.seed)
    spec = get_join(args.algorithm)
    # the spec filters this union of knobs down to what its config accepts
    knobs = dict(
        k=args.k,
        num_reducers=args.num_reducers,
        seed=args.seed,
        num_pivots=args.num_pivots,
        pivot_selection=args.pivot_selection,
        grouping=args.grouping,
        **config_knobs(vars(args), _join_knobs()),
    )
    config = spec.make_config(**knobs)
    outcome = run_join(spec.name, data, data, config)
    cluster = default_cluster(args.num_reducers)
    print(f"algorithm            : {outcome.algorithm}")
    print(f"engine               : {config.engine}"
          + (f" ({config.max_workers} workers)" if config.max_workers else ""))
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
    for stage, stats in outcome.job_stats.as_dict().items():
        print(f"  {stage:<19}: {stats.shuffle_bytes / 1e6:.3f} MB "
              f"({stats.shuffle_records} records)")
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
    if config.chaos is not None or robustness:
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
