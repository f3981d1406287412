"""Quickstart: run the paper's PGBJ kNN join end to end.

Builds a small clustered dataset, joins it with itself (each object paired
with its 10 nearest neighbors), verifies the result against a brute-force
scan, and prints the three measurements the paper reports.

Run:  python examples/quickstart.py
"""

from repro import Cluster, PgbjConfig, run_join
from repro.core import KnnJoinResult, brute_force_knn_join, get_metric
from repro.datasets import gaussian_mixture_dataset


def main() -> None:
    # 1. a workload: 2000 clustered points in 4-d
    data = gaussian_mixture_dataset(2000, dims=4, num_clusters=10, seed=7)
    print(f"dataset: {len(data)} objects, {data.dimensions} dims")

    # 2. configure PGBJ: k=10 neighbors, 9 reducers, 64 Voronoi pivots
    config = PgbjConfig(k=10, num_reducers=9, num_pivots=64, seed=7)
    outcome = run_join("pgbj", data, data, config)

    # 3. look at one object's neighbor list
    some_id = int(data.ids[0])
    neighbor_ids, distances = outcome.result.neighbors_of(some_id)
    print(f"\nobject {some_id}: nearest neighbors {neighbor_ids.tolist()}")
    print(f"            at distances {[round(d, 4) for d in distances.tolist()]}")

    # 4. the paper's three measurements
    cluster = Cluster(num_nodes=9)
    print(f"\nsimulated running time : {outcome.simulated_seconds(cluster):.3f} s on 9 nodes")
    print(f"computation selectivity: {outcome.selectivity() * 1000:.2f} per thousand")
    print(f"shuffling cost         : {outcome.shuffle_bytes() / 1e6:.2f} MB")
    print(f"avg replication of S   : {outcome.avg_replication_of_s():.2f}")

    # 5. PGBJ is exact — verify against the naive O(|R|*|S|) join
    truth = KnnJoinResult.from_dict(
        10,
        brute_force_knn_join(
            get_metric("l2"), data.points, data.ids, data.points, data.ids, 10
        ),
    )
    assert outcome.result.same_distances_as(truth), "PGBJ must equal brute force"
    print("\nverified: PGBJ output matches the brute-force join exactly")


if __name__ == "__main__":
    main()
