"""The library names the contract benchmark (``benchmarks/e2e``) hooks into.

Tier-1 collects ``tests/`` only, and the benchmark's tracer skips an
attribute it cannot find without a word, so renaming one of these names
would zero per-layer metrics instead of failing.  These checks hold the
names here: the two :class:`KernelProvider` methods the tracer wraps, the
two functions its environment stamp and ``kernels.numba_*`` rows read, and
the two shims the frozen harness still calls through.
"""

from contextlib import ExitStack
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from benchmarks.e2e.layers import install_spans, traced_join
from benchmarks.e2e.spans import Patcher, Recorder
from benchmarks.e2e.workloads import COMMON_KNOBS, WORKLOADS
from repro.core import Dataset
from repro.joins import (
    PgbjConfig,
    ZOrderConfig,
    kernel_providers,
    plan_join,
    run_join,
)
from repro.joins.kernels import KERNELS, KernelProvider
from repro.mapreduce import PlanScheduler
from tests.test_engines import outcome_fingerprint

WRAPPED = {"knn_join_kernel": "kernels.knn_join", "morton_codes": "kernels.morton"}


def data():
    return Dataset(np.random.default_rng(3).random((60, 3)), name="d")


def test_tracer_wraps_both_kernel_entry_points():
    assert kernel_providers.KernelProvider is KernelProvider
    originals = {name: vars(KernelProvider)[name] for name in WRAPPED}
    recorder = Recorder()
    with Patcher(recorder) as patcher:
        install_spans(patcher)
        for name, original in originals.items():
            assert vars(KernelProvider)[name].__wrapped__ is original, name
        run_join("pgbj", data(), data(), PgbjConfig(k=3, num_reducers=2, num_pivots=6))
        run_join("zorder", data(), data(), ZOrderConfig(k=3, num_reducers=2))
    assert {name: vars(KernelProvider)[name] for name in WRAPPED} == originals
    calls = recorder.summary().calls
    assert all(calls.get(span, 0) > 0 for span in WRAPPED.values()), calls
    assert isinstance(KERNELS, KernelProvider)


def test_no_compiled_provider_is_available():
    assert kernel_providers.available_kernel_providers()["numba"][0] is False


def test_no_fallback_is_ever_counted():
    assert kernel_providers.fallback_count("auto") == kernel_providers.fallback_count("numba") == 0


def test_traced_join_attributes_distances_inside_the_kernel():
    """Reducers call the ``Metric`` methods the tracer wraps, so the kernel's
    distance time (what ``kernels.select_s`` is subtracted from) is seen."""
    recorder = Recorder()
    workload = SimpleNamespace(join="pgbj")
    config = PgbjConfig(k=3, num_reducers=2, num_pivots=6)
    with Patcher(recorder) as patcher:
        install_spans(patcher)
        outcome, facts = traced_join(workload, data(), data(), config, recorder)
    spans = recorder.summary()
    assert facts["numba_fallbacks"] == 0
    assert outcome.distance_pairs > 0
    assert spans.total("kernels.knn_join") > 0
    assert spans.total("kernels.distance", under="kernels.knn_join") > 0


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_the_frozen_harness_shims_still_run_a_join(workload, tmp_path):
    """The harness builds every workload's config from ``COMMON_KNOBS``
    (retired keywords such as ``spill_codec`` included, which ``make_config``
    drops), reads ``config.plan_concurrency`` and hands ``PlanScheduler``
    ``concurrent=`` and ``checkpoint_dir=None``.  The ``ClassVar`` and the two
    scheduler keywords are owed to it until it is re-frozen: they must keep
    running a join exactly as ``run_join`` does."""
    config = workload.config(0.02, str(tmp_path))
    assert config.plan_concurrency is True
    names = {spec.name for spec in fields(config)}
    assert "spill_codec" in COMMON_KNOBS and "spill_codec" not in names
    assert "plan_concurrency" not in names
    r = Dataset(np.random.default_rng(5).random((200, 3)), name="d")
    plan = plan_join(workload.join, r, r, config)
    with ExitStack() as stack:
        runtime = stack.enter_context(config.make_runtime())
        for held in plan.graph.resources:
            stack.enter_context(held)
        run = PlanScheduler(
            runtime, cache=None, concurrent=config.plan_concurrency, checkpoint_dir=None
        ).execute(plan.graph)
    assert outcome_fingerprint(plan.assemble(run)) == outcome_fingerprint(
        run_join(workload.join, r, r, config)
    )
