"""Partition grouping strategies and the replication cost model (Section 5).

PGBJ's grouping step is two passes on the master: a strategy (geometric,
Algorithm 4, or greedy, Equation 12) splits the R cells into ``N`` groups,
then :func:`~repro.grouping.refine.refine_groups` moves single cells between
them, and swaps pairs of cells, while the S copies it counts from the
partitioning job's pivot distances fall (:mod:`repro.grouping.refine`).
"""

from .base import GroupAssignment, GroupingStrategy
from .cost_model import approx_replication, approx_replication_vector, exact_replication
from .geometric import GeometricGrouping
from .greedy import GreedyGrouping

__all__ = [
    "GroupAssignment",
    "GroupingStrategy",
    "GeometricGrouping",
    "GreedyGrouping",
    "approx_replication",
    "approx_replication_vector",
    "exact_replication",
    "get_grouping_strategy",
]

_STRATEGIES = {
    "geometric": GeometricGrouping,
    "greedy": GreedyGrouping,
}


def get_grouping_strategy(name: str, **kwargs) -> GroupingStrategy:
    """Instantiate a grouping strategy by configuration name."""
    try:
        strategy_cls = _STRATEGIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown grouping strategy {name!r}; available: {sorted(_STRATEGIES)}"
        ) from None
    return strategy_cls(**kwargs)
