"""Distributed kNN join algorithms, planned as dataflow graphs.

* :class:`PGBJ` — the paper's contribution (Voronoi partitioning + grouping).
* :class:`PBJ` — the pruning kernel inside the block framework (no grouping).
* :class:`HBRJ` — the R-tree block-join baseline of Zhang et al.
* :class:`BroadcastJoin` — the naive |R| + N*|S| broadcast strategy.

All produce identical exact results; they differ in running time, computation
selectivity and shuffling cost — the paper's three measurements, exposed on
:class:`JoinOutcome`.

Every algorithm (the approximate z-order join and the closest-pairs /
range-selection operators included) is registered as a *plan builder*: it
describes its MapReduce pipeline as a :class:`~repro.mapreduce.plan.JobGraph`
whose stages a :class:`~repro.mapreduce.plan.PlanScheduler` executes —
concurrently where dependencies allow, with content-keyed stage reuse across
sweeps.  :func:`run_join` is the uniform entry point; the classes above are
thin shims over it.
"""

from .base import (
    BlockJoinConfig,
    InvalidJoinInput,
    JoinConfig,
    JoinOutcome,
    KnnJoinAlgorithm,
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
    run_join_plans,
)

# importing the driver modules populates the registry
from .basic import BroadcastJoin
from .closest_pairs import ClosestPairsOutcome, TopKClosestPairs
from .hbrj import HBRJ
from .ijoin import IJoinBlock
from .pbj import PBJ
from .pgbj import PGBJ
from .range_selection import DistributedRangeSelection, RangeSelectionOutcome
from .zorder import ZOrderConfig, ZOrderKnnJoin, recall_against

__all__ = [
    "JoinConfig",
    "PgbjConfig",
    "BlockJoinConfig",
    "JoinOutcome",
    "StageStats",
    "KnnJoinAlgorithm",
    "PGBJ",
    "PBJ",
    "HBRJ",
    "BroadcastJoin",
    "IJoinBlock",
    "ZOrderKnnJoin",
    "ZOrderConfig",
    "recall_against",
    "DistributedRangeSelection",
    "RangeSelectionOutcome",
    "TopKClosestPairs",
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
    "make_algorithm",
]

#: registry name -> historical driver class (the deprecation shims)
_ALGORITHM_CLASSES = {
    "pgbj": PGBJ,
    "pbj": PBJ,
    "hbrj": HBRJ,
    "broadcast": BroadcastJoin,
    "ijoin": IJoinBlock,
    "zorder": ZOrderKnnJoin,
}


def make_algorithm(name: str, config: JoinConfig) -> KnnJoinAlgorithm:
    """Instantiate an algorithm by report name (deprecated shim).

    Kept for source compatibility; new code should call :func:`run_join`
    (or :func:`get_join` for the registry row).  Raises the historical
    ``TypeError`` when the config class does not match the algorithm.
    """
    spec = get_join(name)
    algorithm_class = _ALGORITHM_CLASSES.get(spec.name)
    if algorithm_class is None:
        raise ValueError(
            f"{spec.name} is an operator, not a kNN join; use run_join({spec.name!r}, ...)"
        )
    if not isinstance(config, spec.config_class):
        raise TypeError(
            f"{algorithm_class.__name__} requires a {spec.config_class.__name__}"
        )
    return algorithm_class(config)
