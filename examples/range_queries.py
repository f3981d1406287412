"""Distributed range selection — the paper's Preliminaries, made runnable.

The paper builds its pruning machinery (Corollary 1, Theorem 2) on the range
selection query of Definition 3 before applying it to the kNN join.  This
example answers a batch of "all objects within theta of q" queries on the
OSM replica with one MapReduce job, shows the pruning at work (objects in
unreachable Voronoi cells never enter the shuffle), and cross-checks against
a linear scan.

Run:  python examples/range_queries.py
"""

import numpy as np

from repro import JoinConfig, run_join
from repro.core import Dataset
from repro.datasets import generate_osm


def main() -> None:
    data = generate_osm(3000, num_cities=8, seed=21)
    rng = np.random.default_rng(3)
    # queries: a batch of "user locations" near the data (batching is the
    # point — the one-off Voronoi partitioning cost amortizes over them)
    num_queries = 64
    query_rows = rng.choice(len(data), size=num_queries, replace=False)
    queries = Dataset(
        data.points[query_rows] + rng.normal(0, 0.01, (num_queries, 2)),
        ids=np.arange(100_000, 100_000 + num_queries),
        name="user-locations",
    )
    theta = 0.5  # degrees, a metro-area radius

    outcome = run_join(
        "range-selection",
        data,
        queries,
        JoinConfig(num_reducers=4, split_size=1024),
        theta=theta,
        num_pivots=48,
    )

    print(f"dataset: {len(data)} OSM points; {len(queries)} queries; theta={theta} deg\n")
    sizes = [len(outcome.matches[qid]) for qid in sorted(outcome.matches)]
    for query_id in sorted(outcome.matches)[:6]:
        found = outcome.matches[query_id]
        print(f"query {query_id}: {len(found):4d} objects within {theta} deg")
    print(f"... ({len(queries)} queries total; median result size "
          f"{sorted(sizes)[len(sizes) // 2]})")

    broadcast_records = len(data) * 4  # every object to every reducer
    print(f"\nshuffled {outcome.shuffle_records} records "
          f"(naive broadcast would ship {broadcast_records})")
    print(f"distance computations: {outcome.selectivity():.3f} x |Q|x|O|")

    # verify against a linear scan
    for row in range(len(queries)):
        dists = np.linalg.norm(data.points - queries.points[row], axis=1)
        expected = sorted(int(i) for i in data.ids[dists <= theta])
        assert outcome.matches[int(queries.ids[row])] == expected
    print("\nverified: every result matches the linear scan exactly")


if __name__ == "__main__":
    main()
