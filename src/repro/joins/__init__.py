"""Distributed kNN join algorithms, planned as dataflow graphs.

* ``pgbj`` — the paper's contribution (Voronoi partitioning + grouping).
* ``pbj`` — the pruning kernel inside the block framework (no grouping).
* ``hbrj`` — the R-tree block-join baseline of Zhang et al.
* ``broadcast`` — the naive |R| + N*|S| broadcast strategy.

All produce identical exact results; they differ in running time, computation
selectivity and shuffling cost — the paper's three measurements, exposed on
:class:`JoinOutcome`.

Every algorithm (the approximate z-order join included) is registered as a
*plan builder*: it describes its MapReduce pipeline as a
:class:`~repro.mapreduce.plan.JobGraph` whose stages a
:class:`~repro.mapreduce.plan.PlanScheduler` executes in declaration order,
with stage reuse across sweeps and restarts when a plan cache is configured.
:func:`run_join` is the one way to run any of them, by registry name
(:func:`plan_join` builds a plan without running it).
"""

# importing the algorithm modules populates the registry
from . import basic, hbrj, pbj, pgbj  # noqa: F401
from .base import (
    BlockJoinConfig,
    InvalidJoinInput,
    JoinConfig,
    JoinOutcome,
    PgbjConfig,
    StageStats,
)
from .registry import (
    JoinPlan,
    JoinSpec,
    available_joins,
    dataset_fingerprint,
    get_join,
    plan_join,
    run_join,
)
from .zorder import ZOrderConfig, recall_against

__all__ = [
    "JoinConfig",
    "PgbjConfig",
    "BlockJoinConfig",
    "JoinOutcome",
    "StageStats",
    "ZOrderConfig",
    "recall_against",
    "InvalidJoinInput",
    "JoinPlan",
    "JoinSpec",
    "available_joins",
    "dataset_fingerprint",
    "get_join",
    "plan_join",
    "run_join",
]
