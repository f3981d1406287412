"""A path named is a path that exists.

README.md, the CI workflow and the verify skill tell people (and runners)
which files to open and run.  Every concrete repo path they name —
``benchmarks/…``, ``results/…``, ``tests/…``, ``src/…``, ``examples/…`` —
must exist, so a deleted script or an uncommitted record cannot leave a
citation behind.  The same goes for code: every ``path.py:Name`` or
``path.py:Name.attr`` citation resolves to a ``def``, ``class`` or assignment
in that module, so a retired name cannot stay cited.  And for variables:
every ``REPRO_*`` name in those documents and under ``src/`` is one the knob
table declares, and README's copy of the table is the rendered one.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")

#: a repo-rooted path: not the tail of a longer path (``/tmp/results/x``) or word
_PATH = re.compile(r"(?<![\w/.<-])(?:benchmarks|results|tests|src|examples)/[\w./-]*")
#: what follows a wildcard or placeholder spelling (``results/<exhibit>.json``,
#: ``results/*``, ``bench_fig*``, ``results/{name}``, ``src/$x``)
_NOT_CONCRETE = set("<*{$")


def named_paths(text: str) -> set[str]:
    paths = set()
    for match in _PATH.finditer(text):
        if text[match.end() : match.end() + 1] in _NOT_CONCRETE:
            continue
        paths.add(match.group().rstrip(".,:;"))  # sentence punctuation
    return paths


def test_extraction_rules():
    text = (
        "run `benchmarks/e2e/run.py`, see tests/test_zorder.py::TestRecallFloor, "
        "results/<exhibit>.json, benchmarks/bench_fig*, /tmp/results/x.json, "
        "`src/` layout, repro/mapreduce/shuffle.py and results/e2e_smoke_counted.json."
    )
    assert named_paths(text) == {
        "benchmarks/e2e/run.py",
        "tests/test_zorder.py",
        "src/",
        "results/e2e_smoke_counted.json",
    }


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_named_path_exists(document):
    paths = named_paths((REPO / document).read_text())
    assert paths, f"{document} names no repo path — did the extraction break?"
    missing = sorted(path for path in paths if not (REPO / path).exists())
    assert not missing, f"{document} names paths that do not exist: {missing}"


# -- a name cited is a name that exists -----------------------------------------

#: ``path.py:Name[.attr]``; the path is repo-rooted or under ``src/repro/``
_CITATION = re.compile(r"([\w./-]+\.py):([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)")


def named_citations(text: str) -> set[tuple[str, str]]:
    return set(_CITATION.findall(text))


def _defined(body: list[ast.stmt]) -> set[str]:
    """Names a module or class body binds with ``def``, ``class`` or ``=``."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def resolves(path: str, name: str) -> bool:
    module = next(
        (REPO / root / path for root in ("", "src/repro") if (REPO / root / path).is_file()),
        None,
    )
    if module is None:
        return False
    body = ast.parse(module.read_text()).body
    head, _, attr = name.partition(".")
    if head not in _defined(body):
        return False
    classes = [node for node in body if isinstance(node, ast.ClassDef) and node.name == head]
    return not attr or any(attr in _defined(node.body) for node in classes)


def test_citation_rules():
    text = (
        "see `joins/registry.py:plan_identity`, core/zorder.py:ZOrderTransform.z_keys, "
        "mapreduce/types.py:RecordBlock.of_objects. and tests/test_zorder.py::TestRecallFloor"
    )
    assert named_citations(text) == {
        ("joins/registry.py", "plan_identity"),
        ("core/zorder.py", "ZOrderTransform.z_keys"),
        ("mapreduce/types.py", "RecordBlock.of_objects"),
    }
    assert resolves("joins/registry.py", "RESULTS_VERSION")  # an assignment
    assert resolves("src/repro/mapreduce/types.py", "RecordBlock.wire_tag")
    assert resolves("mapreduce/types.py", "RecordBlock.is_r")  # a dataclass field
    assert not resolves("mapreduce/types.py", "ObjectRecord")  # retired
    assert not resolves("mapreduce/types.py", "RecordBlock.from_records")
    assert not resolves("mapreduce/gone.py", "RecordBlock")


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_cited_name_exists(document):
    citations = named_citations((REPO / document).read_text())
    if document == "README.md":
        assert citations, "README cites no path.py:Name — did the extraction break?"
    unresolved = sorted(
        f"{path}:{name}" for path, name in citations if not resolves(path, name)
    )
    assert not unresolved, f"{document} cites names that do not exist: {unresolved}"


# -- a variable named is a variable that exists --------------------------------

_VARIABLE = re.compile(r"REPRO_[A-Z_]+")
#: not an execution knob: a workload size
NOT_KNOBS = {"REPRO_BENCH_SCALE"}
SOURCES = sorted(
    str(path.relative_to(REPO)) for path in (REPO / "src").rglob("*.py")
)


def knob_variables() -> set[str]:
    from repro.joins.base import execution_knobs

    return {row.env for row in execution_knobs() if row.env}


@pytest.mark.parametrize("document", DOCUMENTS + ("src/",))
def test_every_named_variable_is_a_knobs(document):
    files = SOURCES if document == "src/" else [document]
    named = {
        (name, token)
        for name in files
        for token in _VARIABLE.findall((REPO / name).read_text())
    }
    assert named, f"{document} names no REPRO_* variable — did the extraction break?"
    unknown = sorted(
        (name, token) for name, token in named if token not in knob_variables() | NOT_KNOBS
    )
    assert not unknown, f"variables no knob declares: {unknown}"


def test_readme_knob_table_is_the_rendered_one():
    from repro.joins.base import knob_table

    readme = (REPO / "README.md").read_text()
    begin, end = "<!-- knob-table:begin -->\n", "\n<!-- knob-table:end -->"
    assert readme.count(begin) == readme.count(end) == 1
    assert readme.split(begin)[1].split(end)[0] == knob_table()
