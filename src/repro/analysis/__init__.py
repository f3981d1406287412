"""Static analysis for the repository's task-code contracts (``repro-lint``).

Every layer of this reproduction rests on one implicit invariant of the
paper's MapReduce design: task code is **deterministic** (re-running an
attempt reproduces its emissions bit for bit — what the cross-engine,
spill and chaos equivalence suites assert dynamically) and
**shippable** (job specs survive pickling to pooled workers today, remote
hosts tomorrow).  This package checks that invariant statically, at review
time, instead of per-dataset at run time:

* :mod:`.model` classifies *task code structurally* — Mapper/Reducer/
  Partitioner subclasses, kernel-provider primitives and plan-builder
  closures — so new joins inherit enforcement for free;
* :mod:`.rules` ships the opening rule set (DET/PKL/RES/ACC);
* :mod:`.registry` makes rules addressable (codes, categories,
  ``--select``/``--ignore``), mirroring the join registry;
* :mod:`.engine` runs rules and applies ``# repro-lint: disable=CODE``
  suppressions;
* :mod:`.cli` is the ``repro-lint`` / ``python -m repro.analysis`` front
  end CI's ``static-analysis`` leg invokes (exit 0 clean / 1 findings /
  2 usage error).
"""

from .engine import analyze_file, analyze_paths, analyze_source, select_rules
from .findings import Finding
from .model import ModuleModel, TaskRegion
from .registry import RULES, RuleSpec, available_rules, get_rule, register_rule

__all__ = [
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "select_rules",
    "Finding",
    "ModuleModel",
    "TaskRegion",
    "RULES",
    "RuleSpec",
    "available_rules",
    "get_rule",
    "register_rule",
]
