"""Random pivot selection.

Paper Section 4.1: draw ``T`` random candidate sets of ``M`` objects from
``R``; score each set by the total sum of pairwise distances; keep the set
with the maximum total — spread-out pivots make better Voronoi cells than a
single uniform draw.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import Metric

from .base import PivotSelector

__all__ = ["RandomPivotSelector"]


class RandomPivotSelector(PivotSelector):
    """Best-of-T random candidate sets, scored by total pairwise distance.

    Parameters
    ----------
    num_candidate_sets:
        ``T`` in the paper.  Scoring costs ``T * M(M-1)/2`` distance
        computations during preprocessing; the winner's are the pivot
        distance matrix, which is therefore never computed again.
    """

    name = "random"

    def __init__(self, num_candidate_sets: int = 5) -> None:
        if num_candidate_sets < 1:
            raise ValueError("num_candidate_sets must be >= 1")
        self.num_candidate_sets = num_candidate_sets

    def select(
        self,
        dataset: Dataset,
        num_pivots: int,
        metric: Metric,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return self.select_with_distances(dataset, num_pivots, metric, rng)[0]

    def select_with_distances(
        self,
        dataset: Dataset,
        num_pivots: int,
        metric: Metric,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        self._check(dataset, num_pivots)
        best_score = -np.inf
        best: tuple[np.ndarray, np.ndarray] | None = None
        for _ in range(self.num_candidate_sets):
            rows = rng.choice(len(dataset), size=num_pivots, replace=False)
            candidate = dataset.points[np.sort(rows)]
            matrix = metric.pairwise_matrix(candidate)
            # row by row right of the diagonal: the float sum the score has
            # always been, so ties and near-ties pick the same candidate
            score = sum(float(matrix[i, i + 1 :].sum()) for i in range(num_pivots - 1))
            if score > best_score:
                best_score = score
                best = candidate, matrix
        assert best is not None
        return best
