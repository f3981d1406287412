"""repro — reproduction of "Efficient Processing of k Nearest Neighbor Joins
using MapReduce" (Lu, Shen, Chen, Ooi; PVLDB 5(10), 2012).

Public API tour
---------------

Datasets and metric space::

    from repro import Dataset, get_metric
    from repro.datasets import generate_forest, generate_osm, expand_dataset

Running a join (PGBJ is the paper's algorithm)::

    from repro import PgbjConfig, run_join
    outcome = run_join("pgbj", r, s, PgbjConfig(k=10, num_reducers=9, num_pivots=64))
    outcome.result.neighbors_of(r_id)   # -> (ids, dists)
    outcome.selectivity()               # Equation 13
    outcome.shuffle_bytes()             # shuffling cost
    outcome.simulated_seconds(Cluster(num_nodes=36))

Every algorithm is registered as a declarative plan builder:
:func:`run_join` resolves the name, builds its
:class:`~repro.mapreduce.plan.JobGraph` and executes its stages in order on
one runtime; ``available_joins()`` lists the registry.
Baselines, by the same call: ``"hbrj"`` (R-tree block join), ``"pbj"``
(pruning without grouping), ``"broadcast"`` (naive).  All are exact and agree
with the brute-force join.  The related operators take their extra arguments
as keywords::

    run_join("range-selection", data, queries, JoinConfig(), theta=0.2)
    run_join("closest-pairs", r, s, BlockJoinConfig(k=5), exclude_self=True)
"""

from .core import (
    Dataset,
    KnnJoinResult,
    Metric,
    PartitionAssignment,
    SummaryTable,
    VoronoiPartitioner,
    brute_force_knn_join,
    get_metric,
)
from .joins import (
    BlockJoinConfig,
    JoinConfig,
    JoinOutcome,
    PgbjConfig,
    StageStats,
    ZOrderConfig,
    available_joins,
    get_join,
    run_join,
)
from .mapreduce import Cluster, JobGraph, LocalRuntime, MapReduceJob, PlanCache

__version__ = "1.0.0"

__all__ = [
    "Dataset",
    "Metric",
    "get_metric",
    "VoronoiPartitioner",
    "PartitionAssignment",
    "SummaryTable",
    "KnnJoinResult",
    "brute_force_knn_join",
    "JoinConfig",
    "PgbjConfig",
    "BlockJoinConfig",
    "JoinOutcome",
    "ZOrderConfig",
    "StageStats",
    "run_join",
    "get_join",
    "available_joins",
    "Cluster",
    "LocalRuntime",
    "MapReduceJob",
    "JobGraph",
    "PlanCache",
    "__version__",
]
