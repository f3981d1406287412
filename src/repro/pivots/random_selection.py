"""Random pivot selection.

Paper Section 4.1 with ``T = 1``: one uniform draw of ``M`` objects from
``R``.  The paper draws ``T`` candidate sets and keeps the one with the
largest total pairwise distance, but scoring costs ``T * M(M-1)/2`` counted
distance pairs, and on the benchmark's OSM and Forest workloads the most
spread-out of five sets bought no cheaper Voronoi cells than the first draw
(Forest's got dearer).  The pivot distance matrix is then the base class's
``M(M-1)/2`` pairs.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import Metric

from .base import PivotSelector

__all__ = ["RandomPivotSelector"]


class RandomPivotSelector(PivotSelector):
    """``M`` distinct objects of ``R``, drawn uniformly, in dataset order."""

    name = "random"

    def select(
        self,
        dataset: Dataset,
        num_pivots: int,
        metric: Metric,
        rng: np.random.Generator,
    ) -> np.ndarray:
        self._check(dataset, num_pivots)
        return dataset.points[np.sort(rng.choice(len(dataset), size=num_pivots, replace=False))]
