"""Spatial kNN join on the OSM-style workload: PGBJ vs the H-BRJ baseline.

For every geo point (e.g. a delivery address), find its 5 nearest mapped
objects — a classic location-based-service query, executed as one
distributed join instead of millions of point queries.  The example runs the
same join with PGBJ and H-BRJ and contrasts the paper's three measurements.

Run:  python examples/spatial_osm.py
"""

from repro import BlockJoinConfig, Cluster, PgbjConfig, run_join
from repro.datasets import generate_osm


def main() -> None:
    k = 5
    data = generate_osm(4000, num_cities=10, seed=11)
    print(f"OSM replica: {len(data)} points with description payloads")
    print(f"payload volume: {int(data.payload_bytes.sum()) / 1e6:.2f} MB riding the shuffle\n")

    cluster = Cluster(num_nodes=9)
    pgbj = run_join("pgbj", data, data, PgbjConfig(k=k, num_reducers=9, num_pivots=96, seed=2))
    hbrj = run_join("hbrj", data, data, BlockJoinConfig(k=k, num_reducers=9, seed=2))

    assert pgbj.result.same_distances_as(hbrj.result), "both joins are exact"

    header = f"{'measurement':34s}{'PGBJ':>12s}{'H-BRJ':>12s}"
    print(header)
    print("-" * len(header))
    rows = [
        ("simulated seconds (9 nodes)",
         f"{pgbj.simulated_seconds(cluster):.3f}", f"{hbrj.simulated_seconds(cluster):.3f}"),
        ("selectivity (per thousand)",
         f"{pgbj.selectivity() * 1000:.2f}", f"{hbrj.selectivity() * 1000:.2f}"),
        ("shuffling cost (MB)",
         f"{pgbj.shuffle_bytes() / 1e6:.2f}", f"{hbrj.shuffle_bytes() / 1e6:.2f}"),
        ("S records shuffled",
         str(pgbj.replication_of_s()), str(hbrj.replication_of_s())),
    ]
    for name, a, b in rows:
        print(f"{name:34s}{a:>12s}{b:>12s}")

    # a concrete query: nearest neighbors of the first point
    some_id = int(data.ids[0])
    lon, lat = data.point_of(some_id)
    ids, dists = pgbj.result.neighbors_of(some_id)
    print(f"\npoint {some_id} at ({lon:.3f}, {lat:.3f}) — {k} nearest (skipping itself):")
    for neighbor, dist in zip(ids.tolist()[1:], dists.tolist()[1:]):
        n_lon, n_lat = data.point_of(neighbor)
        print(f"  object {neighbor:5d} at ({n_lon:8.3f}, {n_lat:7.3f}), {dist:.4f} deg away")


if __name__ == "__main__":
    main()
