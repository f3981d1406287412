"""Tuning walkthrough: how pivot count and strategies shape PGBJ's cost.

A miniature of the paper's Section 6.1 study: sweep the pivot count for two
strategy combinations (RGE and KGE) and watch the three costs move — the
U-shaped selectivity, the falling replication, and the preprocessing price of
k-means pivots.

Run:  python examples/tuning_pivots.py
"""

from repro import Cluster, PgbjConfig, run_join
from repro.datasets import expand_dataset, generate_forest


def main() -> None:
    data = expand_dataset(generate_forest(250, seed=9), 8)
    cluster = Cluster(num_nodes=9)
    print(f"workload: {data.name}, {len(data)} objects\n")

    header = (
        f"{'combo':6s}{'|P|':>6s}{'select(permille)':>18s}{'avg repl':>10s}"
        f"{'pivot-sel s':>12s}{'total s':>9s}"
    )
    print(header)
    print("-" * len(header))
    for combo, pivot_selection in (("RGE", "random"), ("KGE", "kmeans")):
        for num_pivots in (32, 64, 128, 256):
            config = PgbjConfig(
                k=10,
                num_reducers=9,
                num_pivots=num_pivots,
                pivot_selection=pivot_selection,
                grouping="geometric",
                seed=4,
            )
            outcome = run_join("pgbj", data, data, config)
            phases = outcome.phase_seconds(cluster)
            print(
                f"{combo:6s}{num_pivots:>6d}"
                f"{outcome.selectivity() * 1000:>18.2f}"
                f"{outcome.avg_replication_of_s():>10.2f}"
                f"{phases['pivot_selection']:>12.3f}"
                f"{sum(phases.values()):>9.3f}"
            )
        print()
    print("expected shapes: selectivity is U-shaped in |P|; replication falls")
    print("with |P|; k-means pivot selection pays a visible preprocessing cost.")


if __name__ == "__main__":
    main()
