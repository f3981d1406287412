"""One reproduction function per table/figure of the paper's Section 6.

Every function returns (or yields) :class:`~repro.bench.harness.ExperimentResult`
records whose ``text`` is a paper-style table and whose ``data`` holds the raw
series, saved under ``results/`` by the bench drivers.  Each function's
docstring states the trend its exhibit is expected to show.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.bounds import compute_lb_matrix, compute_thetas, group_lb_matrix
from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.core.partition import VoronoiPartitioner
from repro.core.summary import build_partial_summary
from repro.grouping import get_grouping_strategy
from repro.grouping.cost_model import approx_replication, exact_replication
from repro.joins import PgbjConfig
from repro.joins.base import PAIRS_GROUP
from repro.joins.partition_job import SKIPPED_NAME, make_pivot_selector
from repro.metrics import Series, format_series, format_table, size_stats

from .harness import (
    DEFAULTS,
    ExperimentResult,
    default_cluster,
    forest_workload,
    osm_workload,
    pivot_sweep,
    run_algorithm,
    scaled_pivots,
)

__all__ = [
    "table2_experiment",
    "table3_experiment",
    "fig6_fig7_experiment",
    "effect_of_k_experiment",
    "dimensionality_experiment",
    "scalability_experiment",
    "speedup_experiment",
    "ablation_pruning_experiment",
    "ablation_cost_model_experiment",
]

#: the paper's strategy-combination shorthand (Section 6.1)
STRATEGY_COMBOS = (
    ("RGE", "random", "geometric"),
    ("RGR", "random", "greedy"),
    ("KGE", "kmeans", "geometric"),
    ("KGR", "kmeans", "greedy"),
)

#: report label -> registry name of the three algorithms Figures 8-12 compare
COMPARED = {"H-BRJ": "hbrj", "PBJ": "pbj", "PGBJ": "pgbj"}

PHASE_ORDER = (
    "pivot_selection",
    "data_partitioning",
    "index_merging",
    "partition_grouping",
    "knn_join",
)


def _partitioned(data: Dataset, pivots: np.ndarray, k: int):
    """Assign a self-join workload and build summaries + bounds."""
    metric = get_metric("l2")
    partitioner = VoronoiPartitioner(pivots, metric)
    assignment = partitioner.assign(data)
    tr = build_partial_summary(assignment.partition_ids, assignment.pivot_distances, 0)
    ts = build_partial_summary(assignment.partition_ids, assignment.pivot_distances, k)
    pdm = partitioner.pivot_distance_matrix()
    return assignment, tr, ts, pdm


# -- Table 2 -------------------------------------------------------------------


def table2_experiment(seed: int = 0) -> ExperimentResult:
    """Partition-size statistics per pivot-selection strategy (Table 2)."""
    data = forest_workload(seed=seed)
    rng_master = np.random.default_rng(seed)
    rows = []
    raw: dict[str, dict[str, list]] = {}
    for num_pivots in pivot_sweep():
        for strategy in ("random", "farthest", "kmeans"):
            config = PgbjConfig(num_pivots=num_pivots, pivot_selection=strategy)
            selector = make_pivot_selector(config)
            metric = get_metric("l2")
            pivots = selector.select(
                data, num_pivots, metric, np.random.default_rng(rng_master.integers(1 << 31))
            )
            assignment = VoronoiPartitioner(pivots, metric).assign(data)
            stats = size_stats(assignment.counts())
            rows.append([num_pivots, strategy] + stats.as_row())
            raw.setdefault(strategy, {}).setdefault("pivots", []).append(num_pivots)
            raw[strategy].setdefault("dev", []).append(stats.deviation)
            raw[strategy].setdefault("max", []).append(stats.maximum)
    text = format_table(
        ["#pivots", "selection", "min", "max", "avg", "dev"],
        rows,
        title="Table 2: statistics of partition size",
    )
    return ExperimentResult(
        exhibit="table2",
        title="Statistics of partition size per pivot-selection strategy",
        text=text,
        data=raw,
        params={"objects": len(data), "pivot_counts": list(pivot_sweep())},
    )


# -- Table 3 -------------------------------------------------------------------


def table3_experiment(seed: int = 0, num_groups: int | None = None) -> ExperimentResult:
    """Group-size statistics under geometric grouping (Table 3)."""
    data = forest_workload(seed=seed)
    k = DEFAULTS["k"]
    num_groups = num_groups or DEFAULTS["num_reducers"]
    rng_master = np.random.default_rng(seed)
    rows = []
    raw: dict[str, dict[str, list]] = {}
    for num_pivots in pivot_sweep():
        for strategy in ("random", "farthest", "kmeans"):
            config = PgbjConfig(num_pivots=num_pivots, pivot_selection=strategy)
            selector = make_pivot_selector(config)
            metric = get_metric("l2")
            pivots = selector.select(
                data, num_pivots, metric, np.random.default_rng(rng_master.integers(1 << 31))
            )
            _, tr, ts, pdm = _partitioned(data, pivots, k)
            thetas = compute_thetas(tr, ts, pdm, k)
            lb = compute_lb_matrix(tr, pdm, thetas)
            assignment = get_grouping_strategy("geometric").group(
                tr, ts, pdm, lb, num_groups
            )
            stats = size_stats(assignment.group_sizes(tr))
            rows.append([num_pivots, strategy] + stats.as_row())
            raw.setdefault(strategy, {}).setdefault("pivots", []).append(num_pivots)
            raw[strategy].setdefault("dev", []).append(stats.deviation)
    text = format_table(
        ["#pivots", "selection", "min", "max", "avg", "dev"],
        rows,
        title=f"Table 3: statistics of group size (geometric grouping, N={num_groups})",
    )
    return ExperimentResult(
        exhibit="table3",
        title="Statistics of group size per pivot-selection strategy",
        text=text,
        data=raw,
        params={"objects": len(data), "num_groups": num_groups},
    )


# -- Figures 6 & 7 --------------------------------------------------------------


def fig6_fig7_experiment(seed: int = 0) -> tuple[ExperimentResult, ExperimentResult]:
    """Tuning sweep: phase times (Fig 6), selectivity & replication (Fig 7).

    Runs the full PGBJ pipeline for the four strategy combinations over the
    pivot-count sweep; one pass feeds both exhibits, as in the paper.
    """
    data = forest_workload(seed=seed)
    cluster = default_cluster()
    phase_rows = []
    sel_series = {name: Series(name) for name, _, _ in STRATEGY_COMBOS}
    rep_series = {name: Series(name) for name, _, _ in STRATEGY_COMBOS}
    raw: dict[str, dict] = {}
    for num_pivots in pivot_sweep():
        for name, pivot_selection, grouping in STRATEGY_COMBOS:
            outcome = run_algorithm(
                "pgbj",
                data,
                data,
                num_pivots=num_pivots,
                pivot_selection=pivot_selection,
                grouping=grouping,
                seed=seed,
            )
            phases = outcome.phase_seconds(cluster)
            phase_rows.append(
                [num_pivots, name]
                + [round(phases.get(phase, 0.0), 3) for phase in PHASE_ORDER]
                + [round(sum(phases.values()), 3)]
            )
            sel_series[name].add(outcome.selectivity() * 1000)
            rep_series[name].add(outcome.avg_replication_of_s())
            raw.setdefault(name, {})[str(num_pivots)] = {
                "phases": phases,
                "selectivity_permille": outcome.selectivity() * 1000,
                "avg_replication": outcome.avg_replication_of_s(),
                "shuffle_bytes": outcome.shuffle_bytes(),
            }
    fig6 = ExperimentResult(
        exhibit="fig6",
        title="Query cost of tuning parameters (phase breakdown, seconds)",
        text=format_table(
            ["#pivots", "combo", *PHASE_ORDER, "total"],
            phase_rows,
            title="Figure 6: per-phase simulated seconds",
        ),
        data=raw,
        params={"objects": len(data), "cluster_nodes": cluster.num_nodes},
    )
    xs = list(pivot_sweep())
    fig7_text = "\n\n".join(
        [
            format_series(
                "Figure 7(a): computation selectivity (per thousand)",
                "#pivots",
                xs,
                [sel_series[name] for name, _, _ in STRATEGY_COMBOS],
            ),
            format_series(
                "Figure 7(b): average replication of S",
                "#pivots",
                xs,
                [rep_series[name] for name, _, _ in STRATEGY_COMBOS],
            ),
        ]
    )
    fig7 = ExperimentResult(
        exhibit="fig7",
        title="Computation selectivity & replication vs pivot count",
        text=fig7_text,
        data=raw,
        params={"objects": len(data)},
    )
    return fig6, fig7


# -- Figures 8 & 9 ---------------------------------------------------------------


def effect_of_k_experiment(
    dataset: str = "forest",
    ks: tuple[int, ...] = (10, 20, 30, 40, 50),
    seed: int = 0,
    num_pivots: int | None = None,
) -> ExperimentResult:
    """Effect of k: running time, selectivity, shuffling cost (Fig 8/9).

    The 2-d OSM workload defaults to fewer pivots than the 10-d Forest one:
    at reproduction scale the pivot:object ratio is ~40x the paper's, and in
    low dimensions the per-object pivot distances would otherwise dominate
    the measurement (see EXPERIMENTS.md, Figure 9 notes).
    """
    if dataset == "forest":
        data = forest_workload(seed=seed)
        exhibit = "fig8"
        pivots = num_pivots or scaled_pivots(DEFAULTS["num_pivots"])
    elif dataset == "osm":
        data = osm_workload(seed=seed)
        exhibit = "fig9"
        pivots = num_pivots or scaled_pivots(48)
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    cluster = default_cluster()
    time_series = {name: Series(name) for name in COMPARED}
    sel_series = {name: Series(name) for name in COMPARED}
    shuffle_series = {name: Series(name) for name in COMPARED}
    raw: dict[str, dict] = {name: {} for name in COMPARED}
    for k in ks:
        for name, join in COMPARED.items():
            outcome = run_algorithm(join, data, data, k=k, seed=seed, num_pivots=pivots)
            seconds = outcome.simulated_seconds(cluster)
            time_series[name].add(seconds)
            sel_series[name].add(outcome.selectivity() * 1000)
            shuffle_series[name].add(outcome.shuffle_bytes() / 1e6)
            raw[name][str(k)] = {
                "seconds": seconds,
                "selectivity_permille": outcome.selectivity() * 1000,
                "shuffle_mb": outcome.shuffle_bytes() / 1e6,
            }
    order = ["H-BRJ", "PBJ", "PGBJ"]
    text = "\n\n".join(
        [
            format_series(
                f"Figure {exhibit[-1]}(a): running time (simulated seconds)",
                "k",
                list(ks),
                [time_series[n] for n in order],
            ),
            format_series(
                f"Figure {exhibit[-1]}(b): computation selectivity (per thousand)",
                "k",
                list(ks),
                [sel_series[n] for n in order],
            ),
            format_series(
                f"Figure {exhibit[-1]}(c): shuffling cost (MB)",
                "k",
                list(ks),
                [shuffle_series[n] for n in order],
            ),
        ]
    )
    return ExperimentResult(
        exhibit=exhibit,
        title=f"Effect of k over the {dataset} workload",
        text=text,
        data=raw,
        params={"objects": len(data), "ks": list(ks)},
    )


# -- Figure 10 --------------------------------------------------------------------


def dimensionality_experiment(
    dims: tuple[int, ...] = (2, 4, 6, 8, 10), seed: int = 0
) -> ExperimentResult:
    """Effect of dimensionality (Fig 10): three panels over n in 2..10."""
    cluster = default_cluster()
    time_series = {name: Series(name) for name in COMPARED}
    sel_series = {name: Series(name) for name in COMPARED}
    shuffle_series = {name: Series(name) for name in COMPARED}
    raw: dict[str, dict] = {name: {} for name in COMPARED}
    for n_dims in dims:
        data = forest_workload(dims=n_dims, seed=seed)
        for name, join in COMPARED.items():
            outcome = run_algorithm(join, data, data, seed=seed)
            seconds = outcome.simulated_seconds(cluster)
            time_series[name].add(seconds)
            sel_series[name].add(outcome.selectivity() * 1000)
            shuffle_series[name].add(outcome.shuffle_bytes() / 1e6)
            raw[name][str(n_dims)] = {
                "seconds": seconds,
                "selectivity_permille": outcome.selectivity() * 1000,
                "shuffle_mb": outcome.shuffle_bytes() / 1e6,
            }
    order = ["H-BRJ", "PBJ", "PGBJ"]
    text = "\n\n".join(
        [
            format_series(
                "Figure 10(a): running time (simulated seconds)",
                "dims",
                list(dims),
                [time_series[n] for n in order],
            ),
            format_series(
                "Figure 10(b): computation selectivity (per thousand)",
                "dims",
                list(dims),
                [sel_series[n] for n in order],
            ),
            format_series(
                "Figure 10(c): shuffling cost (MB)",
                "dims",
                list(dims),
                [shuffle_series[n] for n in order],
            ),
        ]
    )
    return ExperimentResult(
        exhibit="fig10",
        title="Effect of dimensionality",
        text=text,
        data=raw,
        params={"dims": list(dims)},
    )


# -- Figure 11 --------------------------------------------------------------------


def scalability_experiment(
    times: tuple[int, ...] = (1, 5, 10, 15, 20, 25), seed: int = 0
) -> ExperimentResult:
    """Scalability with data size x1..x25 (Fig 11)."""
    cluster = default_cluster()
    time_series = {name: Series(name) for name in COMPARED}
    sel_series = {name: Series(name) for name in COMPARED}
    shuffle_series = {name: Series(name) for name in COMPARED}
    raw: dict[str, dict] = {name: {} for name in COMPARED}
    sizes = []
    for t in times:
        data = forest_workload(times=t, seed=seed)
        sizes.append(len(data))
        for name, join in COMPARED.items():
            outcome = run_algorithm(join, data, data, seed=seed)
            seconds = outcome.simulated_seconds(cluster)
            time_series[name].add(seconds)
            sel_series[name].add(outcome.selectivity() * 1000)
            shuffle_series[name].add(outcome.shuffle_bytes() / 1e6)
            raw[name][str(t)] = {
                "objects": len(data),
                "seconds": seconds,
                "selectivity_permille": outcome.selectivity() * 1000,
                "shuffle_mb": outcome.shuffle_bytes() / 1e6,
            }
    order = ["H-BRJ", "PBJ", "PGBJ"]
    text = "\n\n".join(
        [
            format_series(
                "Figure 11(a): running time (simulated seconds)",
                "x-size",
                list(times),
                [time_series[n] for n in order],
            ),
            format_series(
                "Figure 11(b): computation selectivity (per thousand)",
                "x-size",
                list(times),
                [sel_series[n] for n in order],
            ),
            format_series(
                "Figure 11(c): shuffling cost (MB)",
                "x-size",
                list(times),
                [shuffle_series[n] for n in order],
            ),
        ]
    )
    return ExperimentResult(
        exhibit="fig11",
        title="Scalability with data size",
        text=text,
        data=raw,
        params={"times": list(times), "objects": sizes},
    )


# -- Figure 12 --------------------------------------------------------------------


def speedup_experiment(
    nodes: tuple[int, ...] = (9, 16, 25, 36), seed: int = 0
) -> ExperimentResult:
    """Speedup with the number of computing nodes (Fig 12)."""
    data = forest_workload(seed=seed)
    time_series = {name: Series(name) for name in COMPARED}
    sel_series = {name: Series(name) for name in COMPARED}
    shuffle_series = {name: Series(name) for name in COMPARED}
    raw: dict[str, dict] = {name: {} for name in COMPARED}
    for num_nodes in nodes:
        cluster = default_cluster(num_nodes)
        for name, join in COMPARED.items():
            outcome = run_algorithm(join, data, data, num_reducers=num_nodes, seed=seed)
            seconds = outcome.simulated_seconds(cluster)
            time_series[name].add(seconds)
            sel_series[name].add(outcome.selectivity() * 1000)
            shuffle_series[name].add(outcome.shuffle_bytes() / 1e6)
            raw[name][str(num_nodes)] = {
                "seconds": seconds,
                "selectivity_permille": outcome.selectivity() * 1000,
                "shuffle_mb": outcome.shuffle_bytes() / 1e6,
            }
    order = ["H-BRJ", "PBJ", "PGBJ"]
    text = "\n\n".join(
        [
            format_series(
                "Figure 12(a): running time (simulated seconds)",
                "#nodes",
                list(nodes),
                [time_series[n] for n in order],
            ),
            format_series(
                "Figure 12(b): computation selectivity (per thousand)",
                "#nodes",
                list(nodes),
                [sel_series[n] for n in order],
            ),
            format_series(
                "Figure 12(c): shuffling cost (MB)",
                "#nodes",
                list(nodes),
                [shuffle_series[n] for n in order],
            ),
        ]
    )
    return ExperimentResult(
        exhibit="fig12",
        title="Speedup with cluster size",
        text=text,
        data=raw,
        params={"objects": len(data), "nodes": list(nodes)},
    )


# -- Ablations (beyond the paper) ---------------------------------------------------


def ablation_pruning_experiment(seed: int = 0) -> ExperimentResult:
    """Ablation: Corollary 1 and Theorem 2 pruning switched off one by one."""
    data = forest_workload(seed=seed)
    cluster = default_cluster()
    variants = (
        ("both on (paper)", True, True),
        ("no hyperplane", False, True),
        ("no ring", True, False),
        ("both off", False, False),
    )
    rows = []
    raw = {}
    for label, use_hp, use_ring in variants:
        outcome = run_algorithm(
            "pgbj",
            data,
            data,
            use_hyperplane_pruning=use_hp,
            use_ring_pruning=use_ring,
            seed=seed,
        )
        seconds = outcome.simulated_seconds(cluster)
        rows.append(
            [
                label,
                round(seconds, 3),
                round(outcome.selectivity() * 1000, 4),
                round(outcome.shuffle_bytes() / 1e6, 3),
            ]
        )
        raw[label] = {
            "seconds": seconds,
            "selectivity_permille": outcome.selectivity() * 1000,
        }
        if use_hp and use_ring:
            paper = outcome
    # the paper assigns with all (|R| + |S|) * M object-pivot pairs; the ones the
    # triangle bound skipped are counted, so its figure is the first run's with
    # them added back
    skipped = paper.counters.value(PAIRS_GROUP, SKIPPED_NAME)
    all_pairs = (paper.distance_pairs + skipped) / len(data) ** 2 * 1000
    rows.append(["both on, all-pairs assignment", "-", round(all_pairs, 4), rows[0][3]])
    raw["both on, all-pairs assignment"] = {"selectivity_permille": all_pairs}
    text = format_table(
        ["variant", "seconds", "selectivity (permille)", "shuffle MB"],
        rows,
        title="Ablation: PGBJ pruning rules",
    )
    return ExperimentResult(
        exhibit="ablation_pruning",
        title="PGBJ with pruning rules disabled",
        text=text,
        data=raw,
        params={"objects": len(data)},
    )


def ablation_cost_model_experiment(seed: int = 0) -> ExperimentResult:
    """Ablation: Equation 12's whole-partition estimate vs exact Equation 11."""
    data = forest_workload(seed=seed)
    k = DEFAULTS["k"]
    metric = get_metric("l2")
    rng = np.random.default_rng(seed)
    rows = []
    raw = {}
    for num_pivots in pivot_sweep():
        config = PgbjConfig(num_pivots=num_pivots)
        pivots = make_pivot_selector(config).select(data, num_pivots, metric, rng)
        assignment, tr, ts, pdm = _partitioned(data, pivots, k)
        thetas = compute_thetas(tr, ts, pdm, k)
        lb = compute_lb_matrix(tr, pdm, thetas)
        groups = get_grouping_strategy("geometric").group(
            tr, ts, pdm, lb, DEFAULTS["num_reducers"]
        )
        lbg = group_lb_matrix(lb, groups.groups)
        started = time.perf_counter()
        exact = exact_replication(lbg, assignment.partition_ids, assignment.pivot_distances)
        exact_seconds = time.perf_counter() - started
        started = time.perf_counter()
        approx = approx_replication(lbg, ts)
        approx_seconds = time.perf_counter() - started
        rows.append(
            [
                num_pivots,
                exact,
                approx,
                round(approx / max(exact, 1), 3),
                round(exact_seconds * 1000, 3),
                round(approx_seconds * 1000, 3),
            ]
        )
        raw[str(num_pivots)] = {"exact": exact, "approx": approx}
    text = format_table(
        ["#pivots", "RP exact (Eq 11)", "RP approx (Eq 12)", "ratio", "exact ms", "approx ms"],
        rows,
        title="Ablation: replication cost model, exact vs whole-partition estimate",
    )
    return ExperimentResult(
        exhibit="ablation_cost_model",
        title="Equation 11 vs Equation 12 replication estimates",
        text=text,
        data=raw,
        params={"objects": len(data)},
    )
