"""Synthetic replica of the Forest CoverType dataset (UCI Covertype).

The paper's default workload is the 10 integer cartographic attributes of
Covertype (580K objects), self-joined.  This generator reproduces the
properties those experiments exercise:

* 10 integer attributes with realistic ranges (elevation, aspect, slope,
  distances, hillshades, ...);
* objects clustered by cover type (7 classes with uneven priors), so Voronoi
  partitioning has real structure to find;
* attributes 7-10 (the hillshade/fire-distance block) have *low variance*
  relative to their ranges — the paper observes exactly this on the real data
  and uses it to explain Figure 10's flattening between 6 and 10 dimensions;
* integer-valued coordinates, so distance ties exist (exercising the
  tie-break paths), and the paper's x-t expansion procedure is applicable.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset

__all__ = ["generate_forest", "FOREST_ATTRIBUTES"]

#: attribute name, value range (lo, hi), relative within-class spread.
#: The first six attributes vary widely; the last four are low-variance.
FOREST_ATTRIBUTES: tuple[tuple[str, tuple[float, float], float], ...] = (
    ("elevation", (1850.0, 3850.0), 0.10),
    ("aspect", (0.0, 360.0), 0.25),
    ("slope", (0.0, 60.0), 0.22),
    ("horiz_dist_hydrology", (0.0, 1400.0), 0.18),
    ("vert_dist_hydrology", (-170.0, 600.0), 0.16),
    ("horiz_dist_roadways", (0.0, 7000.0), 0.15),
    ("hillshade_9am", (0.0, 254.0), 0.035),
    ("hillshade_noon", (0.0, 254.0), 0.030),
    ("hillshade_3pm", (0.0, 254.0), 0.035),
    ("horiz_dist_fire_points", (0.0, 7100.0), 0.040),
)

#: cover-type priors, as skewed as the real dataset's (two dominant classes)
_CLASS_PRIORS = np.array([0.365, 0.488, 0.062, 0.005, 0.016, 0.030, 0.034])


def generate_forest(
    num_objects: int,
    dims: int = 10,
    seed: int = 0,
    name: str = "forest",
) -> Dataset:
    """Generate a Covertype-shaped dataset of integer attributes.

    ``dims`` keeps the first ``dims`` attributes (the Figure 10 sweep uses
    2..10); the low-variance block only appears from dimension 7 on, exactly
    as in the paper's analysis of the real data.
    """
    if not 1 <= dims <= len(FOREST_ATTRIBUTES):
        raise ValueError(f"dims must be in [1, {len(FOREST_ATTRIBUTES)}]")
    if num_objects < 1:
        raise ValueError("num_objects must be >= 1")
    rng = np.random.default_rng(seed)
    num_classes = _CLASS_PRIORS.size
    labels = rng.choice(num_classes, size=num_objects, p=_CLASS_PRIORS)

    points = np.empty((num_objects, dims), dtype=np.float64)
    for dim in range(dims):
        _, (lo, hi), rel_spread = FOREST_ATTRIBUTES[dim]
        span = hi - lo
        # per-class mean positions within the range; seeded per dimension so
        # the class structure is stable across sizes.  Low-variance
        # attributes (7-10) squeeze the class means into a narrow band, so
        # their *overall* variance is small — the property the paper observes
        # on the real data.
        dim_rng = np.random.default_rng(seed * 1000 + dim)
        if dim >= 6:
            class_means = lo + span * (0.72 + 0.08 * dim_rng.random(num_classes))
        else:
            class_means = lo + span * (0.15 + 0.7 * dim_rng.random(num_classes))
        values = class_means[labels] + rng.normal(0.0, rel_spread * span, num_objects)
        points[:, dim] = np.clip(np.rint(values), lo, hi)

    return Dataset(points, name=name)
