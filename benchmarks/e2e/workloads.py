"""The four workloads: what is joined and with which knobs (``BENCHMARK.json``
and README.md say why each is here).

Every knob the library reads is written out here — no ``REPRO_*`` variable, no
CLI default, no harness reader takes part — so one workload name means one
program on every shell.  ``--seed`` reaches the dataset only; ``JoinConfig.seed``
(pivot and shift draws) stays at its default 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import Dataset
from repro.datasets import expand_dataset, generate_forest, generate_osm
from repro.joins import JoinConfig, get_join

__all__ = ["WORKLOADS", "Workload", "get_workload"]

#: the generators draw the *structure* of a dataset (cover-type class means,
#: city layout) from their seed, and join cost follows structure: at fixed size
#: ``generate_forest(seed=0..9)`` moves PGBJ's shuffle by 19 % and its wall
#: clock by 15 % (quartile distance ÷ median), which would drown the bounds.  So
#: the structure is drawn once, from seed 0, as a pool ``POOL_FACTOR`` times the
#: needed size, and ``--seed`` picks which objects of the pool are joined.
POOL_FACTOR = 8
STRUCTURE_SEED = 0

#: knobs shared by all four workloads (the issue's table)
COMMON_KNOBS = dict(
    k=10,
    num_reducers=9,
    split_size=2048,
    metric_name="l2",
    kernel_provider="auto",
    plan_concurrency=True,
    spill_codec="none",
    auto_tune=False,
    stage_fusion=False,
    task_timeout=None,
    checkpoint_dir=None,
    plan_cache_dir=None,
)

SPILL_BUDGET = 65536


def _sample(pool: Dataset, size: int, seed: int) -> Dataset:
    """``size`` objects of the pool chosen by ``seed``, re-identified 0..size-1."""
    rows = np.sort(np.random.default_rng(seed).choice(len(pool), size, replace=False))
    payload = None if pool.payload_bytes is None else pool.payload_bytes[rows].copy()
    return Dataset(pool.points[rows].copy(), payload_bytes=payload, name=pool.name)


def forest_x10(base_objects: int, seed: int) -> Dataset:
    """The paper's default data: Forest expanded ten times (10-d, integer)."""
    pool = generate_forest(base_objects * POOL_FACTOR, dims=10, seed=STRUCTURE_SEED)
    return expand_dataset(_sample(pool, base_objects, seed), 10)


def osm(objects: int, seed: int) -> Dataset:
    """The paper's second dataset: clustered 2-d points with payload bytes."""
    pool = generate_osm(objects * POOL_FACTOR, seed=STRUCTURE_SEED)
    return _sample(pool, objects, seed)


@dataclass(frozen=True)
class Workload:
    """One named workload.  Sizes are the full-scale (1.0) counts."""

    name: str
    join: str
    data: str  # "forest" | "osm"
    objects: int  # forest: base objects before the x10 expansion
    pivots: int | None  # None: the join has no pivots (zorder)
    engine: str = "serial"
    max_workers: int | None = None
    spill: bool = False
    exact: bool = True

    def dataset(self, seed: int, scale: float) -> Dataset:
        objects = max(20, int(self.objects * scale))
        return forest_x10(objects, seed) if self.data == "forest" else osm(objects, seed)

    def config(self, scale: float, work_dir: str) -> JoinConfig:
        """The join's config.  ``work_dir`` hosts the spill segments of the
        out-of-core workloads; the in-memory ones must not name a spill dir
        (naming one is what switches the library to the spill shuffle)."""
        knobs = dict(COMMON_KNOBS, engine=self.engine, max_workers=self.max_workers)
        if self.pivots is not None:
            knobs["num_pivots"] = max(9, int(self.pivots * scale))
        if self.spill:
            knobs.update(memory_budget=SPILL_BUDGET, spill_dir=work_dir)
        else:
            knobs.update(memory_budget=None, spill_dir=None)
        return get_join(self.join).make_config(**knobs)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="forest_pgbj_serial",
        join="pgbj",
        data="forest",
        objects=800,
        pivots=320,
    ),
    Workload(
        name="forest_pgbj_pooled",
        join="pgbj",
        data="forest",
        objects=800,
        pivots=320,
        engine="processes-pooled",
        max_workers=2,
    ),
    Workload(
        name="osm_pgbj_spill",
        join="pgbj",
        data="osm",
        objects=10000,
        pivots=400,
        spill=True,
    ),
    Workload(
        name="forest_zorder_spill",
        join="zorder",
        data="forest",
        objects=500,
        pivots=None,
        spill=True,
        exact=False,
    ),
)


def get_workload(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise ValueError(
        f"unknown workload {name!r}; available: {', '.join(w.name for w in WORKLOADS)}"
    )
