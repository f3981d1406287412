"""Farthest pivot selection.

Paper Section 4.1: on a sample of ``R``, pick a random first pivot, then
iteratively pick the object that maximizes the *sum* of its distances to the
pivots chosen so far.  The paper's own evaluation (Table 2) shows this
strategy keeps selecting outliers, producing badly skewed partition sizes —
it is implemented to reproduce that negative result.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import Metric

from .base import PIVOT_SAMPLE_SIZE, PivotSelector

__all__ = ["FarthestPivotSelector"]


class FarthestPivotSelector(PivotSelector):
    """Greedy max-sum-of-distances selection over a sample.

    Parameters
    ----------
    sample_size:
        Sample drawn on the master before selection (0 disables sampling).
    """

    name = "farthest"

    def __init__(self, sample_size: int = PIVOT_SAMPLE_SIZE) -> None:
        if sample_size < 0:
            raise ValueError("sample_size must be >= 0")
        self.sample_size = sample_size

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
        if num_pivots > len(sample):
            raise ValueError(
                f"sample of {len(sample)} objects too small for {num_pivots} pivots"
            )
        points = sample.points
        chosen = [int(rng.integers(len(sample)))]
        # running sum of distances from every sample object to chosen pivots
        sum_dists = metric.distances(points[chosen[0]], points)
        for _ in range(1, num_pivots):
            masked = sum_dists.copy()
            masked[chosen] = -np.inf  # never re-pick an already-chosen object
            next_row = int(np.argmax(masked))
            chosen.append(next_row)
            sum_dists += metric.distances(points[next_row], points)
        return points[chosen].copy()
