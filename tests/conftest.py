"""Shared fixtures: small deterministic datasets and ground-truth joins."""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.core import Dataset, KnnJoinResult, brute_force_knn_join, get_metric
from repro.datasets import generate_forest, generate_osm


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """A child process or thread started in a test must not outlive it.

    A pooled runtime left open keeps its workers running after the test;
    wrap it in ``with`` (or ``close()`` it) instead.
    """
    children = set(multiprocessing.active_children())
    threads = set(threading.enumerate())
    yield
    leaked = [p for p in multiprocessing.active_children() if p not in children]
    leaked += [t for t in threading.enumerate() if t not in threads]
    assert not leaked, f"workers outlived the test: {leaked}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def metric():
    return get_metric("l2")


@pytest.fixture
def small_uniform() -> Dataset:
    """120 points, 3-d, continuous (tie-free almost surely)."""
    generator = np.random.default_rng(7)
    return Dataset(generator.random((120, 3)), name="small-uniform")


@pytest.fixture
def small_forest() -> Dataset:
    """300 integer-valued Covertype-like points (ties exist)."""
    return generate_forest(300, seed=3)


@pytest.fixture
def small_osm() -> Dataset:
    """250 clustered 2-d geo points with payloads."""
    return generate_osm(250, seed=5)


def ground_truth(r: Dataset, s: Dataset, k: int) -> KnnJoinResult:
    """Brute-force reference join (uncounted fresh metric)."""
    metric = get_metric("l2")
    return KnnJoinResult.from_dict(
        k, brute_force_knn_join(metric, r.points, r.ids, s.points, s.ids, k)
    )


@pytest.fixture
def ground_truth_fn():
    return ground_truth
