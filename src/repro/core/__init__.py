"""Core primitives: metric space, datasets, Voronoi partitioning and bounds.

This subpackage holds everything the paper's Section 2 and 4 define below the
MapReduce layer: counted distance metrics, the dataset container, Voronoi
diagram-based partitioning with the paper's tie-break, summary tables
``T_R``/``T_S``, the pruning geometry (Theorems 1-2) and the kNN/replication
bounds (Theorems 3-6, Algorithms 1-2).
"""

from .bounds import (
    bounding_knn,
    compute_lb_matrix,
    compute_thetas,
    group_lb_matrix,
    lower_bound,
    upper_bound,
)
from .dataset import Dataset
from .distance import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MinkowskiMetric,
    get_metric,
)
from .geometry import (
    PRUNE_EPS,
    hyperplane_distance,
    partition_pruned_by_hyperplane,
    ring_bounds,
    ring_slice,
)
from .knn import KBestList, brute_force_knn_join, knn_of_point
from .partition import PartitionAssignment, VoronoiPartitioner
from .result import KnnJoinResult
from .summary import SummaryTable, build_partial_summary, merge_partial_summaries

__all__ = [
    "Dataset",
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "get_metric",
    "VoronoiPartitioner",
    "PartitionAssignment",
    "SummaryTable",
    "build_partial_summary",
    "merge_partial_summaries",
    "KnnJoinResult",
    "KBestList",
    "knn_of_point",
    "brute_force_knn_join",
    "hyperplane_distance",
    "partition_pruned_by_hyperplane",
    "ring_bounds",
    "ring_slice",
    "PRUNE_EPS",
    "upper_bound",
    "lower_bound",
    "bounding_knn",
    "compute_thetas",
    "compute_lb_matrix",
    "group_lb_matrix",
]
