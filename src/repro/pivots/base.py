"""Pivot selection interface (paper Section 4.1).

Pivot selection runs in the preprocessing step on the master node, before any
MapReduce job.  Because the master cannot hold an arbitrarily large ``R``,
the farthest and k-means strategies operate on a uniform sample of at most
:data:`PIVOT_SAMPLE_SIZE` objects, and k-means runs at most
:data:`KMEANS_ITERATIONS` Lloyd rounds: the one value of each that the joins
and a selector built directly share.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import Metric

__all__ = ["PivotSelector", "PIVOT_SAMPLE_SIZE", "KMEANS_ITERATIONS"]

#: objects of R the farthest and k-means selectors sample on the master
PIVOT_SAMPLE_SIZE = 8192
#: Lloyd iteration cap of the k-means selector
KMEANS_ITERATIONS = 8


class PivotSelector(ABC):
    """Selects ``M`` pivot points from (a sample of) ``R``."""

    #: identifier used in experiment reports ("random", "farthest", "kmeans")
    name: str = "abstract"

    @abstractmethod
    def select(
        self,
        dataset: Dataset,
        num_pivots: int,
        metric: Metric,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return an ``(M, n)`` array of pivot coordinates.

        Implementations must be deterministic given ``rng`` and must route
        every distance evaluation through ``metric`` so that pivot-selection
        work is included in computation selectivity, as the paper measures.
        """

    def select_with_distances(
        self,
        dataset: Dataset,
        num_pivots: int,
        metric: Metric,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`select`, plus the pivots' ``M x M`` distance matrix,
        ``M(M-1)/2`` pairs counted on ``metric``."""
        pivots = self.select(dataset, num_pivots, metric, rng)
        return pivots, metric.pairwise_matrix(pivots)

    def _check(self, dataset: Dataset, num_pivots: int) -> None:
        if num_pivots < 1:
            raise ValueError("num_pivots must be >= 1")
        if num_pivots > len(dataset):
            raise ValueError(
                f"cannot select {num_pivots} pivots from {len(dataset)} objects"
            )
