"""Clustering on the kNN graph — the paper's first motivating application.

The introduction motivates the kNN join as the primitive behind clustering
algorithms.  This example runs the full pipeline: one PGBJ self-join builds
the kNN graph of the dataset; keeping only *mutual* kNN edges shorter than a
distance cutoff and taking connected components (networkx) yields clusters —
a shared-nearest-neighbor-style method whose entire distance workload is the
single distributed join.

Run:  python examples/knn_graph_clustering.py
"""

from collections import Counter

import networkx as nx
import numpy as np

from repro import PgbjConfig, run_join
from repro.core import Dataset


def make_blobs(seed: int = 8):
    """Five well-separated Gaussian blobs with known labels."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-40, 40, size=(5, 3))
    points, labels = [], []
    for label, center in enumerate(centers):
        count = 150 + 60 * label  # uneven cluster sizes
        points.append(center + rng.normal(0, 1.2, size=(count, 3)))
        labels += [label] * count
    return Dataset(np.vstack(points), name="blobs"), np.array(labels)


def main() -> None:
    k = 8
    data, labels = make_blobs()
    print(f"dataset: {len(data)} points in 5 uneven blobs; k={k}")

    outcome = run_join(
        "pgbj", data, data, PgbjConfig(k=k + 1, num_reducers=9, num_pivots=40, seed=6)
    )

    # build the mutual-kNN graph (skip self edges; cut overly long links)
    neighbor_sets: dict[int, set[int]] = {}
    for r_id in outcome.result.r_ids():
        ids, _ = outcome.result.neighbors_of(r_id)
        neighbor_sets[r_id] = {int(s) for s in ids if int(s) != r_id}
    all_dists = outcome.result.kth_distances()
    cutoff = float(np.median(all_dists)) * 2.0

    graph = nx.Graph()
    graph.add_nodes_from(neighbor_sets)
    for r_id, neighbors in neighbor_sets.items():
        ids, dists = outcome.result.neighbors_of(r_id)
        for s_id, dist in zip(ids.tolist(), dists.tolist()):
            if s_id != r_id and dist <= cutoff and r_id in neighbor_sets.get(s_id, ()):
                graph.add_edge(r_id, s_id)

    components = [c for c in nx.connected_components(graph) if len(c) >= 5]
    components.sort(key=len, reverse=True)
    print(f"mutual-kNN graph: {graph.number_of_edges()} edges, "
          f"{len(components)} clusters of size >= 5")

    # purity: each found cluster should be dominated by one true label
    total_pure = 0
    for index, component in enumerate(components[:8]):
        votes = Counter(int(labels[node]) for node in component)
        top_label, top_count = votes.most_common(1)[0]
        total_pure += top_count
        print(f"  cluster {index}: {len(component):4d} points, "
              f"{100 * top_count / len(component):5.1f}% label {top_label}")
    purity = total_pure / sum(len(c) for c in components)
    print(f"\noverall purity: {purity:.3f}")
    assert len(components) == 5, "should recover the five blobs"
    assert purity > 0.98
    print("clustering via a single kNN join succeeded")


if __name__ == "__main__":
    main()
