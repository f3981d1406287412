"""k-means pivot selection.

Paper Section 4.1: sample ``R`` on the master, run traditional k-means on the
sample, and use the cluster centers as pivots.  The centers need not be data
objects (Voronoi partitioning never requires pivots to belong to the
dataset).  Lloyd's algorithm is implemented here directly — no external
dependency — with random-object initialization and empty-cluster reseeding.

Note the centroid (mean) update step is the L2 k-means; under other metrics
the assignment still uses the configured metric, making this a k-means-style
heuristic, which is all pivot selection needs.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import Metric

from .base import KMEANS_ITERATIONS, PIVOT_SAMPLE_SIZE, PivotSelector

__all__ = ["KMeansPivotSelector"]


class KMeansPivotSelector(PivotSelector):
    """Lloyd's k-means over a sample; centers become pivots.

    Parameters
    ----------
    sample_size:
        Master-side sample size (0 disables sampling).
    max_iterations:
        Lloyd iteration cap; iteration also stops on assignment convergence.
    """

    name = "kmeans"

    def __init__(
        self, sample_size: int = PIVOT_SAMPLE_SIZE, max_iterations: int = KMEANS_ITERATIONS
    ) -> None:
        if sample_size < 0:
            raise ValueError("sample_size must be >= 0")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.sample_size = sample_size
        self.max_iterations = max_iterations

    def select(
        self,
        dataset: Dataset,
        num_pivots: int,
        metric: Metric,
        rng: np.random.Generator,
    ) -> np.ndarray:
        self._check(dataset, num_pivots)
        sample = dataset
        if self.sample_size and len(dataset) > self.sample_size:
            sample = dataset.sample(max(self.sample_size, num_pivots), rng)
        points = sample.points
        rows = rng.choice(len(sample), size=num_pivots, replace=False)
        centers = points[rows].copy()
        assignment = np.full(len(sample), -1, dtype=np.int64)
        for _ in range(self.max_iterations):
            dists = metric.cross_distances(points, centers)
            new_assignment = dists.argmin(axis=1)
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
            for center_index in range(num_pivots):
                members = points[assignment == center_index]
                if members.shape[0] == 0:
                    # reseed an empty cluster to a random object
                    centers[center_index] = points[int(rng.integers(len(sample)))]
                else:
                    centers[center_index] = members.mean(axis=0)
        return centers
