"""Pivot selection strategies (paper Section 4.1).

Three strategies are provided, matching the paper: :class:`RandomPivotSelector`
(one uniform draw: the paper's best-of-T with ``T = 1``, since scoring
candidate sets costs counted pairs and bought no cheaper cells),
:class:`FarthestPivotSelector` (greedy max-sum-distance) and
:class:`KMeansPivotSelector` (cluster centers of a sample).
:func:`get_pivot_selector` resolves the names used in experiment
configurations ("random" / "farthest" / "kmeans").
"""

from .base import KMEANS_ITERATIONS, PIVOT_SAMPLE_SIZE, PivotSelector
from .farthest_selection import FarthestPivotSelector
from .kmeans_selection import KMeansPivotSelector
from .random_selection import RandomPivotSelector

__all__ = [
    "PivotSelector",
    "RandomPivotSelector",
    "FarthestPivotSelector",
    "KMeansPivotSelector",
    "get_pivot_selector",
    "PIVOT_SAMPLE_SIZE",
    "KMEANS_ITERATIONS",
]

_SELECTORS = {
    "random": RandomPivotSelector,
    "farthest": FarthestPivotSelector,
    "kmeans": KMeansPivotSelector,
}


def get_pivot_selector(name: str, **kwargs) -> PivotSelector:
    """Instantiate a selector by configuration name.

    >>> get_pivot_selector("random").name
    'random'
    """
    try:
        selector_cls = _SELECTORS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown pivot selector {name!r}; available: {sorted(_SELECTORS)}"
        ) from None
    return selector_cls(**kwargs)
