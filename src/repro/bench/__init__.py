"""Experiment harness reproducing every exhibit of the paper's Section 6."""

from .experiments import (
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
from .harness import (
    DEFAULTS,
    ExperimentResult,
    bench_scale,
    default_cluster,
    forest_workload,
    osm_workload,
    run_algorithm,
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
    "ExperimentResult",
    "bench_scale",
    "forest_workload",
    "osm_workload",
    "default_cluster",
    "run_algorithm",
    "DEFAULTS",
]
