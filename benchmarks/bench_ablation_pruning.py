"""Ablation (beyond the paper): PGBJ with its pruning rules disabled.

Quantifies what each of Corollary 1 (hyperplane) and Theorem 2 (ring)
contributes to the computation-selectivity win.  A last row gives the paper
configuration under the paper's all-pairs Voronoi assignment, recovered from
the ``assignment_pairs_skipped`` counter of the first run (no switch exists).
"""

from repro.bench import ablation_pruning_experiment




def test_ablation_pruning(benchmark, exhibit_runner):
    result = exhibit_runner(ablation_pruning_experiment)
    both = result.data["both on (paper)"]["selectivity_permille"]
    neither = result.data["both off"]["selectivity_permille"]
    assert both < neither
    # each rule alone also helps over nothing
    assert result.data["no hyperplane"]["selectivity_permille"] < neither
    assert result.data["no ring"]["selectivity_permille"] < neither
    # the assignment's triangle bound only ever removes pairs
    assert both <= result.data["both on, all-pairs assignment"]["selectivity_permille"]
