"""Structural module model: the shared AST facts every rule reads.

One :class:`ModuleModel` is built per analyzed file and handed to every
rule, so the expensive work — parsing, parent links, import resolution,
suppression comments, and above all *task-code classification* — happens
once.

Task code is classified **structurally**, never by path: a class is task
code because it subclasses :class:`~repro.mapreduce.job.Mapper` /
``Reducer`` / ``BlockBufferingMapper``, a shuffle
:class:`~repro.mapreduce.partitioners.Partitioner` or a
:class:`~repro.joins.kernels.KernelProvider`; a function is task code
because it is passed to ``graph.stage(...)`` as a plan builder.  New joins
therefore inherit enforcement the moment they subclass the framework types —
no analyzer change, no path list.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass

__all__ = ["ModuleModel", "TaskRegion", "TASK_BASE_KINDS"]

#: framework base-class name -> the region kind its subclasses get
TASK_BASE_KINDS = {
    "Mapper": "mapper",
    "BlockBufferingMapper": "mapper",
    "Reducer": "reducer",
    "Partitioner": "partitioner",
    "KernelProvider": "kernel-provider",
}

#: ``MapReduceJob(...)`` positional order of the shipped factories
FACTORY_FIELDS = ("mapper_factory", "reducer_factory", "combiner_factory")

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable-file|disable)\s*=\s*([A-Za-z0-9_*,\s-]+)"
)


@dataclass(frozen=True)
class TaskRegion:
    """One task-code root: everything inside ``node`` is task code."""

    node: ast.AST  # ClassDef, FunctionDef or Lambda
    kind: str  # mapper | reducer | partitioner | kernel-provider | plan-builder
    name: str  # class/function name ("<lambda>" for lambdas)


class ModuleModel:
    """Parsed module plus the derived facts rules query.

    Construction never executes the analyzed code — imports are read as
    text, so fixture snippets and broken work-in-progress modules analyze
    fine.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)

        #: child -> parent for every node (identity-keyed)
        self.parents: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[id(child)] = parent

        self.aliases = self._collect_aliases()
        self.line_suppressions, self.file_suppressions = self._collect_suppressions()
        self.task_classes = self._classify_task_classes()
        self.task_regions = self._collect_task_regions()
        self._region_roots = {id(region.node): region for region in self.task_regions}
        self.job_calls = [
            node
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Call) and self.call_name(node) == "MapReduceJob"
        ]

    # -- name resolution ------------------------------------------------------

    def _collect_aliases(self) -> dict[str, str]:
        """Local name -> dotted origin (``np`` -> ``numpy``, ...)."""
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else alias.name.split(".")[0]
                    aliases[local] = origin
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = f"{module}.{alias.name}" if module else alias.name
        return aliases

    @staticmethod
    def dotted_parts(node: ast.AST) -> list[str] | None:
        """``a.b.c`` attribute chain as ``["a", "b", "c"]`` (None otherwise)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return parts
        return None

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of an expression, imports applied.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        under ``import numpy as np``; unresolvable expressions (calls on
        calls, subscripts) return ``None``.
        """
        parts = self.dotted_parts(node)
        if not parts:
            return None
        origin = self.aliases.get(parts[0], parts[0])
        return ".".join([origin, *parts[1:]])

    def call_name(self, call: ast.Call) -> str | None:
        """Last segment of the called name (``job.MapReduceJob`` -> same)."""
        resolved = self.resolve(call.func)
        if resolved is None:
            return None
        return resolved.rsplit(".", 1)[-1]

    # -- suppressions ---------------------------------------------------------

    def _collect_suppressions(self) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
        """``# repro-lint: disable=...`` comments, per line and per file."""
        per_line: dict[int, set[str]] = {}
        file_wide: set[str] = set()
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (token.start[0], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):  # pragma: no cover - defensive
            comments = []
        for line, text in comments:
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            codes = {
                code.strip().upper()
                for code in match.group(2).split(",")
                if code.strip()
            }
            if match.group(1) == "disable-file":
                file_wide.update(codes)
            else:
                per_line.setdefault(line, set()).update(codes)
        return (
            {line: frozenset(codes) for line, codes in per_line.items()},
            frozenset(file_wide),
        )

    def is_suppressed(self, code: str, line: int) -> bool:
        """Whether a finding of ``code`` at ``line`` is disabled by comment."""
        code = code.upper()
        for codes in (self.file_suppressions, self.line_suppressions.get(line, ())):
            if code in codes or "ALL" in codes:
                return True
        return False

    # -- task-code classification ---------------------------------------------

    def _classify_task_classes(self) -> dict[int, tuple[ast.ClassDef, str]]:
        """ClassDef-id -> (node, kind) for every task class, transitively.

        A class is a task class when its own name is a framework base
        (the defining module), when any base's last segment is one, or when
        it extends another task class of the same module — iterated to a
        fixpoint so ``class A(Mapper)``, ``class B(A)`` both classify.
        """
        classes = [
            node for node in ast.walk(self.tree) if isinstance(node, ast.ClassDef)
        ]
        kinds: dict[str, str] = {}
        result: dict[int, tuple[ast.ClassDef, str]] = {}
        changed = True
        while changed:
            changed = False
            for node in classes:
                if id(node) in result:
                    continue
                kind = TASK_BASE_KINDS.get(node.name)
                for base in node.bases:
                    parts = self.dotted_parts(base)
                    if not parts:
                        continue
                    kind = kind or TASK_BASE_KINDS.get(parts[-1]) or kinds.get(parts[-1])
                if kind is not None:
                    result[id(node)] = (node, kind)
                    kinds[node.name] = kind
                    changed = True
        return result

    def _collect_task_regions(self) -> list[TaskRegion]:
        regions = [
            TaskRegion(node=node, kind=kind, name=node.name)
            for node, kind in self.task_classes.values()
        ]
        regions.extend(self._plan_builder_regions())
        return regions

    def _plan_builder_regions(self) -> list[TaskRegion]:
        """Functions handed to ``graph.stage(...)`` as stage builders.

        Builders run master-side but their decisions flow into job specs and
        splits, so the determinism rules cover them.  Both references by
        name (``graph.stage("x", build)``) and inline lambdas classify.
        """
        builder_names: set[str] = set()
        regions: list[TaskRegion] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_stage = (isinstance(func, ast.Attribute) and func.attr == "stage") or (
                isinstance(func, ast.Name) and func.id == "stage"
            )
            if not is_stage:
                continue
            candidates = list(node.args[1:2]) + [
                kw.value for kw in node.keywords if kw.arg == "builder"
            ]
            for arg in candidates:
                if isinstance(arg, ast.Lambda):
                    regions.append(
                        TaskRegion(node=arg, kind="plan-builder", name="<lambda>")
                    )
                elif isinstance(arg, ast.Name):
                    builder_names.add(arg.id)
        if builder_names:
            for node in ast.walk(self.tree):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in builder_names
                ):
                    regions.append(
                        TaskRegion(node=node, kind="plan-builder", name=node.name)
                    )
        return regions

    def task_region_of(self, node: ast.AST) -> TaskRegion | None:
        """The innermost task region containing ``node`` (None outside)."""
        current: ast.AST | None = node
        while current is not None:
            region = self._region_roots.get(id(current))
            if region is not None:
                return region
            current = self.parents.get(id(current))
        return None

    # -- shared structural queries --------------------------------------------

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """Innermost function/lambda containing ``node`` (None at module level)."""
        current = self.parents.get(id(node))
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return current
            current = self.parents.get(id(current))
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        """Innermost class containing ``node`` (None at module level)."""
        current = self.parents.get(id(node))
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current
            current = self.parents.get(id(current))
        return None

    def is_module_level(self, node: ast.AST) -> bool:
        """Whether the definition sits directly in the module body."""
        return isinstance(self.parents.get(id(node)), ast.Module)

    def factory_arguments(self, call: ast.Call) -> list[tuple[str, ast.AST]]:
        """The shipped-factory arguments of a ``MapReduceJob(...)`` call."""
        out: list[tuple[str, ast.AST]] = []
        for index, arg in enumerate(call.args):
            if 1 <= index <= 3:
                out.append((FACTORY_FIELDS[index - 1], arg))
        for keyword in call.keywords:
            if keyword.arg in FACTORY_FIELDS:
                out.append((keyword.arg, keyword.value))
        return out
