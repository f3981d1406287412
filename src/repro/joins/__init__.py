"""Distributed kNN join algorithms, planned as dataflow graphs.

* ``pgbj`` — the paper's contribution (Voronoi partitioning + grouping).
* ``pbj`` — the pruning kernel inside the block framework (no grouping).
* ``hbrj`` — the R-tree block-join baseline of Zhang et al.
* ``broadcast`` — the naive |R| + N*|S| broadcast strategy.

All produce identical exact results; they differ in running time, computation
selectivity and shuffling cost — the paper's three measurements, exposed on
:class:`JoinOutcome`.

Every algorithm (the approximate z-order join and the closest-pairs /
range-selection operators included) is registered as a *plan builder*: it
describes its MapReduce pipeline as a :class:`~repro.mapreduce.plan.JobGraph`
whose stages a :class:`~repro.mapreduce.plan.PlanScheduler` executes —
concurrently where dependencies allow, with content-keyed stage reuse across
sweeps.  :func:`run_join` (or :func:`plan_join` + :func:`run_join_plans`) is
the one way to run any of them, by registry name.
"""

# importing the algorithm modules populates the registry
from . import basic, hbrj, ijoin, pbj, pgbj  # noqa: F401
from .base import (
    BlockJoinConfig,
    InvalidJoinInput,
    JoinConfig,
    JoinOutcome,
    PgbjConfig,
    StageStats,
)
from .closest_pairs import ClosestPairsOutcome
from .range_selection import RangeSelectionOutcome
from .registry import (
    JoinPlan,
    JoinSpec,
    available_joins,
    dataset_fingerprint,
    get_join,
    plan_join,
    run_join,
    run_join_plans,
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
    "RangeSelectionOutcome",
    "ClosestPairsOutcome",
    "InvalidJoinInput",
    "JoinPlan",
    "JoinSpec",
    "available_joins",
    "dataset_fingerprint",
    "get_join",
    "plan_join",
    "run_join",
    "run_join_plans",
]
