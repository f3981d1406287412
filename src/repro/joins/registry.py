"""The unified join registry: every algorithm as a declarative plan builder.

Each join module registers one :class:`JoinSpec` describing how to *plan*
the algorithm — a callable producing a :class:`JoinPlan`: the
:class:`~repro.mapreduce.plan.JobGraph` of its MapReduce stages plus an
``assemble`` function that turns the executed plan into the algorithm's
outcome object.  Everything downstream is generic:

* :func:`run_join` — the one way to run a join: resolve the spec, check the
  inputs at the boundary, build the plan, execute it on one runtime with the
  :class:`~repro.mapreduce.plan.PlanScheduler` (stages in declaration
  order; with a plan cache, every stage stored and reused — by content key
  or by :func:`plan_identity`), assemble the outcome.
* the CLI derives its ``--algorithm`` choices and dispatch from
  :func:`available_joins` instead of a hand-maintained if/elif chain.
"""

from __future__ import annotations

import inspect
from contextlib import ExitStack
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable

import numpy as np

from repro.core.dataset import Dataset
from repro.mapreduce.plan import JobGraph, PlanCache, PlanRun, PlanScheduler

from .base import JoinConfig, check_join_inputs

__all__ = [
    "JoinPlan",
    "JoinSpec",
    "register_join",
    "get_join",
    "available_joins",
    "plan_join",
    "run_join",
    "execute_join_plan",
    "dataset_fingerprint",
    "plan_identity",
    "RESULTS_VERSION",
]


def dataset_fingerprint(dataset: Dataset) -> tuple:
    """Content fingerprint of a dataset, for plan-stage cache keys.

    Hashes the coordinates, ids and (if present) payload sizes — everything
    that can reach a job's outputs or its shuffle accounting — plus the
    cosmetic name so two differently-labelled copies never alias.
    """
    import hashlib

    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(dataset.points).tobytes())
    digest.update(np.ascontiguousarray(dataset.ids).tobytes())
    if dataset.payload_bytes is not None:
        digest.update(np.ascontiguousarray(dataset.payload_bytes).tobytes())
    return (dataset.name, len(dataset), int(dataset.dimensions), digest.hexdigest())


@dataclass
class JoinPlan:
    """One join, planned: its stage graph and how to read the result.

    ``assemble`` receives the completed :class:`~repro.mapreduce.plan.PlanRun`
    and builds the :class:`~repro.joins.base.JoinOutcome`; it holds the
    plan's stage handles in its closure.  The graph's ``resources`` (DFS
    instances staging chained intermediates) are held open for exactly the
    execution's duration.  ``identity`` is the :func:`plan_identity` digest
    the plan cache files keyless stages under, stamped by :func:`plan_join`
    only when the config has a plan cache (fingerprinting the datasets is
    not free); a plan without one caches only its content-keyed stages.
    """

    graph: JobGraph
    assemble: Callable[[PlanRun], Any]
    identity: str = ""


@dataclass(frozen=True)
class JoinSpec:
    """Registry row for one kNN join: ``plan(r, s, config)`` builds its
    :class:`JoinPlan`.  ``pivots_from_r`` marks a join whose plan draws
    ``config.num_pivots`` pivots from R, so the boundary check refuses a
    count above |R|.
    """

    name: str
    config_class: type[JoinConfig]
    plan: Callable[[Dataset, Dataset, JoinConfig], JoinPlan]
    summary: str = ""
    pivots_from_r: bool = False

    def make_config(self, **kwargs) -> JoinConfig:
        """Build this join's config from a superset of keyword knobs.

        Drops knobs the config class does not accept (the CLI collects the
        union of every algorithm's flags); classes taking ``**kwargs``
        additionally accept every base :class:`JoinConfig` field.
        """
        parameters = inspect.signature(self.config_class).parameters
        takes_var = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )
        base_fields = {f.name for f in dataclass_fields(JoinConfig)}
        accepted = {
            key: value
            for key, value in kwargs.items()
            if key in parameters or (takes_var and key in base_fields)
        }
        return self.config_class(**accepted)


#: name -> spec; populated by the join modules at import time
JOINS: dict[str, JoinSpec] = {}


def known_config_knobs() -> frozenset[str]:
    """Every keyword any registered join's config accepts.

    The guard rail behind knob-union entry points (the CLI, the bench
    harness): a knob outside this union is a typo, not a knob some *other*
    algorithm consumes, and should fail loudly instead of being filtered
    into a silent no-op.
    """
    knobs = {field.name for field in dataclass_fields(JoinConfig)}
    for spec in JOINS.values():
        knobs.update(inspect.signature(spec.config_class).parameters)
    knobs.discard("kwargs")
    return frozenset(knobs)


def register_join(spec: JoinSpec) -> JoinSpec:
    """Register an algorithm (module-import time); last registration wins."""
    JOINS[spec.name] = spec
    return spec


def get_join(name: str) -> JoinSpec:
    """Resolve a registered join by name (case-insensitive)."""
    try:
        return JOINS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; available: {', '.join(available_joins())}"
        ) from None


def available_joins() -> tuple[str, ...]:
    """Registered algorithm names, sorted."""
    return tuple(sorted(JOINS))


def _resolve_config(spec: JoinSpec, config: JoinConfig | None) -> JoinConfig:
    if config is None:
        return spec.config_class()
    if not isinstance(config, spec.config_class):
        raise TypeError(
            f"{spec.name} requires a {spec.config_class.__name__}, "
            f"got {type(config).__name__}"
        )
    return config


#: the code version of every persisted stage result: bump when any stage's
#: outputs or counters change.  :func:`plan_identity` (what keyless cached
#: stages are bound to) and the partition stage's plan-cache key both carry it, so a
#: file written by older code is never served.  10: the partitioning job
#: ships anchor codes and an int32 cell id, so its rows changed.  11: rows
#: carry their coordinates in the join's narrowest exact dtype.  12: rows carry
#: codes of every anchor, and ids and cell ids in their narrowest dtypes.
#: 13: reducers judge a (row, cell) pair by the cell's anchor ranges, so the
#: kNN stages' counters changed.  14: reducers scan a row's first cells in
#: bound-ordered rounds and count own-cell and other-cell pairs apart.  15: a
#: self-join's reducers compute each own-cell distance once.  16: ``T_R`` rows
#: carry their cells' anchor hulls, and the join job ships an S copy only to
#: groups with a member within reach around every anchor.  17: an R != S join's
#: ``T_S`` rows carry anchor hulls too, and the master refines the grouping by
#: its counted S copies, so the join stage's groups and counters changed.  18:
#: the partition stage's summary partials are columnar tables, and a
#: self-join's ``T_S`` carries its own anchor hulls.  19: a z-order
#: self-join ships each object once per curve copy, so its join stage's
#: shuffle statistics changed.  20: PGBJ's grouping refinement swaps cells
#: between groups, its reducers judge a (row, S cell) pair by the ranges of
#: only the objects admitted for the row's cell, and a z-order self-join row
#: reads its own entry as 0.0, so the join stages' groups and counters changed.
#: 21: a z-order self-join computes each mirrored window pair once, so its
#: join stage's pair counter changed.  22: PGBJ's and PBJ's reducers judge a
#: (row, S cell) pair by the ranges of all the cell's objects and bound
#: ``|r, p_j|`` by the own pivot alone, so their pivot-pair counters changed.
RESULTS_VERSION = 22


def plan_identity(name: str, r: Dataset, s: Dataset, config: JoinConfig) -> str:
    """Digest of everything a plan's stage results can depend on: the code
    (:data:`RESULTS_VERSION`), the join, both datasets by content and whether
    they are one object (a self-join assigns each object once), and *every*
    comparing config field but ``plan_cache_dir`` itself — not a hand-picked
    "semantic" subset, so a new knob cannot be forgotten (the price: changing
    an execution-only knob between a kill and its resume re-runs the keyless
    stages)."""
    knobs = [
        (spec.name, repr(getattr(config, spec.name)))
        for spec in dataclass_fields(config)
        if spec.compare and spec.name != "plan_cache_dir"
    ]
    identity = (
        RESULTS_VERSION,
        name.lower(),
        dataset_fingerprint(r),
        dataset_fingerprint(s),
        r is s,
        type(config).__name__,
        knobs,
    )
    import hashlib

    return hashlib.sha1(repr(identity).encode()).hexdigest()


def _checked(
    name: str, r: Dataset, s: Dataset, config: JoinConfig | None
) -> tuple[JoinSpec, JoinConfig]:
    """Resolve the spec and config, and pass the inputs through the boundary
    check — the one place it runs, once per planned join."""
    spec = get_join(name)
    config = _resolve_config(spec, config)
    check_join_inputs(
        r,
        s,
        config.k,
        num_pivots=config.num_pivots if spec.pivots_from_r else None,
    )
    return spec, config


def _build_plan(spec: JoinSpec, r: Dataset, s: Dataset, config: JoinConfig) -> JoinPlan:
    plan = spec.plan(r, s, config)
    if config.caches_stages:
        plan.identity = plan_identity(spec.name, r, s, config)
    return plan


def plan_join(
    name: str, r: Dataset, s: Dataset, config: JoinConfig | None = None
) -> JoinPlan:
    """Build (without executing) the named join's plan; run it with
    :func:`execute_join_plan`."""
    spec, config = _checked(name, r, s, config)
    return _build_plan(spec, r, s, config)


def _plan_cache_for(config: JoinConfig) -> PlanCache | None:
    """The stage cache this run schedules with.

    An explicitly attached ``config.plan_cache`` wins (the sweep-harness
    pattern — possibly itself persistent); otherwise ``plan_cache_dir``
    alone stands up a fresh persistent cache over that directory, so
    cross-process reuse needs nothing but the path knob.
    """
    if config.plan_cache is not None:
        return config.plan_cache
    if config.plan_cache_dir:
        return PlanCache(directory=config.plan_cache_dir)
    return None


def execute_join_plan(plan: JoinPlan, config: JoinConfig) -> Any:
    """Execute one plan the way ``config`` says, then assemble.

    The one place the execution knobs meet the scheduler.  The runtime (and
    with it any worker pool and spill directory the config implies) plus the
    graph's DFS resources live exactly as long as the execution.
    """
    with ExitStack() as stack:
        runtime = stack.enter_context(config.make_runtime())
        for resource in plan.graph.resources:
            stack.enter_context(resource)
        run = PlanScheduler(
            runtime, cache=_plan_cache_for(config), identity=plan.identity
        ).execute(plan.graph)
    return plan.assemble(run)


def run_join(
    name: str, r: Dataset, s: Dataset, config: JoinConfig | None = None
) -> Any:
    """Plan and execute one join; returns its outcome object.

    The uniform entry point for every registered algorithm::

        outcome = run_join("pgbj", r, s, PgbjConfig(k=10, num_pivots=64))
    """
    spec, config = _checked(name, r, s, config)
    return execute_join_plan(_build_plan(spec, r, s, config), config)
