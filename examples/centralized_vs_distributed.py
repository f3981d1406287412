"""Centralized Gorder vs distributed PGBJ — the paper's framing, measured.

The paper's premise: centralized kNN joins (Gorder, iJoin, Mux) hit a wall
as data grows, motivating the MapReduce formulation.  This example runs the
centralized Gorder join (PCA + grid-order scheduled block nested loop, ref
[17]) and the distributed PGBJ on the same workloads and contrasts their
distance-computation counts and time structure: Gorder's whole cost sits on
one machine, PGBJ's splits across N reducers with a shuffle in between.

Run:  python examples/centralized_vs_distributed.py
"""

import time

from repro import Cluster, PgbjConfig, run_join
from repro.core import get_metric
from repro.datasets import expand_dataset, generate_forest
from repro.gorder import GorderKnnJoin


def main() -> None:
    k = 10
    print(f"{'workload':>10s}{'algorithm':>24s}{'select(permille)':>18s}"
          f"{'time':>22s}")
    print("-" * 74)
    for times in (4, 8, 16):
        data = expand_dataset(generate_forest(250, seed=12), times)

        metric = get_metric("l2")
        gorder = GorderKnnJoin(metric, segments_per_dim=16, block_size=64)
        started = time.perf_counter()
        gorder_result = gorder.run(data.points, data.ids, data.points, data.ids, k)
        gorder_seconds = time.perf_counter() - started
        gorder_sel = metric.pairs_computed / (len(data) ** 2) * 1000

        pgbj = run_join(
            "pgbj", data, data, PgbjConfig(k=k, num_reducers=9, num_pivots=96, seed=12)
        )
        pgbj_seconds = pgbj.simulated_seconds(Cluster(num_nodes=9))

        # both are exact: spot-check one object agrees
        some_id = int(data.ids[0])
        assert (
            abs(gorder_result[some_id][1][-1] - pgbj.result.neighbors_of(some_id)[1][-1])
            < 1e-9
        )
        print(f"{len(data):>10d}{'Gorder (1 machine)':>24s}"
              f"{gorder_sel:>18.1f}{gorder_seconds:>18.2f} s *")
        print(f"{'':>10s}{'PGBJ (9 nodes, sim.)':>24s}"
              f"{pgbj.selectivity() * 1000:>18.1f}{pgbj_seconds:>18.2f} s")
    print("\n* Gorder time is single-machine wall clock; PGBJ time is the")
    print("  cluster model over measured task work. The point is the trend:")
    print("  the centralized join's cost grows with the square of the data on")
    print("  one machine, while PGBJ spreads comparable work over N reducers.")


if __name__ == "__main__":
    main()
