"""Exact vs approximate: PGBJ against the z-order (H-zkNNJ-style) join.

The paper restricts itself to *exact* kNN joins and cites H-zkNNJ as the
approximate alternative.  This example runs both on the same workload and
prints the trade-off: the z-order join computes a fraction of the distances
but misses a fraction of the true neighbors, with recall bought back by
adding shifted copies of the curve.

Run:  python examples/approximate_tradeoff.py
"""

from repro import PgbjConfig, run_join
from repro.datasets import expand_dataset, generate_forest
from repro.joins import ZOrderConfig, recall_against


def main() -> None:
    k = 10
    data = expand_dataset(generate_forest(250, seed=6), 8)
    print(f"workload: {len(data)} Forest-like objects, k={k}\n")

    exact = run_join("pgbj", data, data, PgbjConfig(k=k, num_reducers=9, num_pivots=96, seed=1))
    print(
        f"{'method':22s}{'recall':>8s}{'dist-ratio':>12s}"
        f"{'select(permille)':>18s}{'shuffle MB':>12s}"
    )
    print("-" * 72)
    print(
        f"{'PGBJ (exact)':22s}{1.0:>8.3f}{1.0:>12.3f}"
        f"{exact.selectivity() * 1000:>18.1f}{exact.shuffle_bytes() / 1e6:>12.2f}"
    )
    for shifts in (1, 2, 4, 6):
        approx = run_join(
            "zorder", data, data, ZOrderConfig(k=k, num_reducers=9, num_shifts=shifts, seed=1)
        )
        recall, ratio = recall_against(approx.result, exact.result)
        print(
            f"{f'z-order, {shifts} shifts':22s}{recall:>8.3f}{ratio:>12.3f}"
            f"{approx.selectivity() * 1000:>18.1f}{approx.shuffle_bytes() / 1e6:>12.2f}"
        )
    print(
        "\ntrade-off: each extra shifted curve raises recall toward 1.0 and"
        "\nships every object once more; exact PGBJ guarantees recall 1.0."
        "\nThe curve's grid is a cube (one cell size in every dimension), so a"
        "\ncopy is worth in 10-d most of what it is in 2-d: the default two"
        "\ncopies find three of four true neighbors for a ninth of the pairs."
    )


if __name__ == "__main__":
    main()
