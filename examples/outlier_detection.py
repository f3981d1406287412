"""Distance-based outlier detection on top of the kNN self-join.

The paper motivates kNN join as the primitive behind outlier mining
(Knorr & Ng; Ramaswamy et al.): score every object by the distance to its
k-th nearest neighbor and flag the highest scores.  One kNN self-join
computes all scores at once — no per-object queries.

This example plants 15 outliers far from 8 Gaussian clusters, runs PGBJ, and
checks the kth-NN-distance ranking recovers them.

Run:  python examples/outlier_detection.py
"""

import numpy as np

from repro import PgbjConfig, run_join
from repro.core import Dataset


def build_dataset(seed: int = 3) -> tuple[Dataset, set[int]]:
    """Clustered inliers plus a handful of scattered outliers."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-50, 50, size=(8, 3))
    inliers = np.vstack(
        [center + rng.normal(0, 1.0, size=(250, 3)) for center in centers]
    )
    outliers = rng.uniform(-200, 200, size=(15, 3))
    # keep only planted points that really are far from every cluster
    far = np.array(
        [np.linalg.norm(centers - p, axis=1).min() > 40 for p in outliers]
    )
    outliers = outliers[far]
    points = np.vstack([inliers, outliers])
    outlier_ids = set(range(len(inliers), len(points)))
    return Dataset(points, name="outlier-demo"), outlier_ids


def main() -> None:
    k = 10
    data, planted = build_dataset()
    print(f"dataset: {len(data)} objects, {len(planted)} planted outliers")

    outcome = run_join(
        "pgbj", data, data, PgbjConfig(k=k + 1, num_reducers=9, num_pivots=48, seed=1)
    )

    # self-join: neighbor 0 is the object itself (distance 0), so the
    # outlier score is the (k+1)-th entry = distance to the k-th true neighbor
    r_ids = np.array(outcome.result.r_ids())
    scores = outcome.result.kth_distances()
    ranking = r_ids[np.argsort(-scores)]

    top = list(ranking[: len(planted)])
    hits = sum(1 for object_id in top if object_id in planted)
    print(f"\ntop-{len(planted)} outlier scores (distance to {k}-th neighbor):")
    for object_id in top[:10]:
        row = int(np.flatnonzero(r_ids == object_id)[0])
        marker = "PLANTED" if object_id in planted else ""
        print(f"  object {object_id:5d}  score {scores[row]:8.2f}  {marker}")
    print(f"\nrecall of planted outliers in top-{len(planted)}: {hits}/{len(planted)}")
    assert hits >= 0.9 * len(planted), "outlier recall should be near-perfect"
    print("outlier detection via kNN join succeeded")


if __name__ == "__main__":
    main()
