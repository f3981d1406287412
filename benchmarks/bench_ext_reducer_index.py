"""Extension bench: reducer-side index shoot-out on identical shuffles.

H-BRJ (R-tree), iJoin (iDistance/B+-tree) and PBJ (summary-bound kernel) all
run the same sqrt(N) x sqrt(N) block framework — same shuffle, same merge —
so this bench isolates the cost of the *in-reducer* kNN strategy, a
comparison the paper's related work discusses but never measures on equal
footing.
"""

from repro.bench import ExperimentResult, forest_workload
from repro.bench.harness import DEFAULTS, default_cluster, run_algorithm
from repro.metrics import format_table


def reducer_index_experiment(seed: int = 0) -> ExperimentResult:
    """Same block framework, three reducer kernels."""
    data = forest_workload(seed=seed)
    cluster = default_cluster()
    k = DEFAULTS["k"]
    kernels = {
        "H-BRJ (R-tree)": "hbrj",
        "PBJ (summary bounds)": "pbj",
        "iJoin (iDistance)": "ijoin",
    }
    outcomes = {
        label: run_algorithm(join, data, data, k=k, seed=seed)
        for label, join in kernels.items()
    }
    rows = []
    raw = {}
    for name, outcome in outcomes.items():
        seconds = outcome.simulated_seconds(cluster)
        rows.append(
            [
                name,
                round(seconds, 3),
                round(outcome.selectivity() * 1000, 2),
                round(outcome.shuffle_bytes() / 1e6, 3),
            ]
        )
        raw[name] = {
            "seconds": seconds,
            "selectivity_permille": outcome.selectivity() * 1000,
            "shuffle_mb": outcome.shuffle_bytes() / 1e6,
        }
    # all three must agree exactly
    reference = outcomes["H-BRJ (R-tree)"].result
    for name, outcome in outcomes.items():
        assert outcome.result.same_distances_as(reference), name
    text = format_table(
        ["reducer kernel", "seconds", "selectivity (permille)", "shuffle MB"],
        rows,
        title="Extension: reducer-side index comparison (identical block shuffles)",
    )
    return ExperimentResult(
        exhibit="ext_reducer_index",
        title="R-tree vs iDistance vs summary-bound reducer kernels",
        text=text,
        data=raw,
        params={"objects": len(data), "k": k},
    )


def test_ext_reducer_index(benchmark, exhibit_runner):
    result = exhibit_runner(reducer_index_experiment)
    # the block shuffle is identical across kernels
    shuffles = [v["shuffle_mb"] for v in result.data.values()]
    assert max(shuffles) - min(shuffles) < 1e-6
    # every kernel produced a finite, positive measurement
    assert all(v["seconds"] > 0 for v in result.data.values())
