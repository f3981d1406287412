"""Extension bench: exact PGBJ vs the approximate z-order join (H-zkNNJ).

The paper excludes approximate methods; this bench quantifies what that
exclusion costs/buys — recall below 1.0 in exchange for a fraction of the
distance computations — inside the same harness, on both of the paper's
datasets: the 2-d OSM replica and the 10-d Forest x10 replica.

Two knobs buy recall, and the table prices both.  A curve copy
(``num_shifts``) ships every object once more and scans another ``2 *
candidates_per_side`` curve neighbours per ``r``: shuffle and selectivity
grow linearly with it.  A wider window (``candidates_per_side``) ships
nothing extra and only adds pairs.  The join's default is two copies at
``candidates_per_side = k``, held here to recall >= 0.7 on Forest 10-d.
"""

import numpy as np

from repro.bench import ExperimentResult, forest_workload, osm_workload, run_algorithm
from repro.bench.harness import DEFAULTS, scaled_pivots
from repro.joins import ZOrderConfig, recall_against, run_join
from repro.metrics import format_table

SHIFTS = (1, 2, 3, 4)
WINDOWS = (1, 2)  # candidates_per_side, in multiples of k


def zorder_vs_exact_experiment(seed: int = 0) -> ExperimentResult:
    """Sweep curve copies x window width on both datasets against exact PGBJ."""
    k = DEFAULTS["k"]
    workloads = {"osm-2d": osm_workload(seed=seed), "forest-10d": forest_workload(seed=seed)}
    rows = []
    raw = {"default_shifts": ZOrderConfig().num_shifts, "datasets": {}}
    for label, data in workloads.items():
        exact = run_algorithm(
            "pgbj", data, data, k=k, seed=seed, num_pivots=scaled_pivots(48)
        )
        rows.append(
            [
                label,
                "PGBJ (exact)",
                "-",
                "-",
                1.0,
                1.0,
                round(exact.selectivity() * 1000, 2),
                round(exact.shuffle_bytes() / 1e6, 3),
            ]
        )
        cells = {}
        for window in WINDOWS:
            for shifts in SHIFTS:
                outcome = run_join(
                    "zorder",
                    data,
                    data,
                    ZOrderConfig(
                        k=k,
                        num_reducers=DEFAULTS["num_reducers"],
                        num_shifts=shifts,
                        candidates_per_side=window * k,
                        seed=seed,
                    ),
                )
                recall, ratio = recall_against(outcome.result, exact.result)
                rows.append(
                    [
                        label,
                        "z-order",
                        shifts,
                        f"{window}k" if window > 1 else "k",
                        round(recall, 4),
                        round(ratio, 4),
                        round(outcome.selectivity() * 1000, 2),
                        round(outcome.shuffle_bytes() / 1e6, 3),
                    ]
                )
                cells[f"{shifts}x{window}k"] = {
                    "recall": recall,
                    "ratio": ratio,
                    "selectivity_permille": outcome.selectivity() * 1000,
                    "shuffle_mb": outcome.shuffle_bytes() / 1e6,
                }
        raw["datasets"][label] = {
            "objects": len(data),
            "exact_selectivity_permille": exact.selectivity() * 1000,
            "cells": cells,
        }
    text = format_table(
        [
            "dataset",
            "method",
            "#shifts",
            "per side",
            "recall",
            "dist ratio",
            "selectivity (permille)",
            "shuffle MB",
        ],
        rows,
        title="Extension: exact vs approximate (H-zkNNJ-style) kNN join",
    )
    return ExperimentResult(
        exhibit="ext_zorder",
        title="Approximate z-order join vs exact PGBJ",
        text=text,
        data=raw,
        params={"k": k, "objects": {name: len(data) for name, data in workloads.items()}},
    )


def test_ext_zorder_tradeoff(benchmark, exhibit_runner):
    result = exhibit_runner(zorder_vs_exact_experiment)
    default_shifts = result.data["default_shifts"]
    for label, record in result.data["datasets"].items():
        cells = record["cells"]
        for window in WINDOWS:
            sweep = [cells[f"{shifts}x{window}k"] for shifts in SHIFTS]
            # every extra curve copy only ever adds candidates
            recalls = [cell["recall"] for cell in sweep]
            assert recalls == sorted(recalls), (label, window, recalls)
            # ... and ships every object once more
            shuffles = [cell["shuffle_mb"] for cell in sweep]
            assert shuffles == sorted(shuffles), (label, window, shuffles)
        # the default setting is far cheaper in pairs than exact PGBJ
        default = cells[f"{default_shifts}x1k"]
        assert default["selectivity_permille"] < record["exact_selectivity_permille"]
        # approximate distances never beat the exact radius
        assert all(np.isfinite(c["ratio"]) and c["ratio"] >= 0.999 for c in cells.values())
        # the stated quality of the defaults, in 10-d as in 2-d (a toy-scale
        # run has too few objects per z-block for the floor to mean anything)
        if record["objects"] >= 1000:
            assert default["recall"] >= 0.7, label
