"""kNN classification as a single distributed join.

Classify a test set R against a labeled training set S: one kNN join
R ⋉ S delivers every test object's k nearest training objects, and a
majority vote over their labels is the prediction — the batch formulation of
the kNN classifier the paper's introduction motivates.

Run:  python examples/knn_classification.py
"""

from collections import Counter

import numpy as np

from repro import PgbjConfig, run_join
from repro.core import Dataset


def make_labeled_world(seed: int = 5):
    """Three well-separated classes in 5-d; train/test split."""
    rng = np.random.default_rng(seed)
    centers = np.array(
        [[0.0] * 5, [6.0] * 5, [0.0, 6.0, 0.0, 6.0, 0.0]]
    )
    points, labels = [], []
    for label, center in enumerate(centers):
        points.append(center + rng.normal(0, 1.6, size=(400, 5)))
        labels += [label] * 400
    points = np.vstack(points)
    labels = np.array(labels)
    order = rng.permutation(len(points))
    points, labels = points[order], labels[order]
    split = 900
    train = Dataset(points[:split], ids=np.arange(split), name="train")
    test = Dataset(
        points[split:], ids=np.arange(10_000, 10_000 + len(points) - split), name="test"
    )
    return train, labels[:split], test, labels[split:]


def main() -> None:
    k = 9
    train, train_labels, test, test_labels = make_labeled_world()
    print(f"train: {len(train)} labeled objects; test: {len(test)} objects; k={k}")

    outcome = run_join(
        "pgbj", test, train, PgbjConfig(k=k, num_reducers=9, num_pivots=48, seed=3)
    )

    label_of = dict(zip(train.ids.tolist(), train_labels.tolist()))
    correct = 0
    for row, r_id in enumerate(test.ids.tolist()):
        neighbor_ids, _ = outcome.result.neighbors_of(r_id)
        votes = Counter(label_of[int(s_id)] for s_id in neighbor_ids)
        predicted = votes.most_common(1)[0][0]
        correct += int(predicted == test_labels[row])

    accuracy = correct / len(test)
    print(f"kNN-join classifier accuracy: {accuracy:.3f}")
    print(f"join selectivity: {outcome.selectivity() * 1000:.2f} per thousand "
          f"(vs 1000 for the naive scan)")
    assert accuracy > 0.9, "separated classes should classify nearly perfectly"
    print("classification via a single kNN join succeeded")


if __name__ == "__main__":
    main()
