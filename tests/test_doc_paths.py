"""A path named is a path that exists.

README.md, the CI workflow and the verify skill tell people (and runners)
which files to open and run.  Every concrete repo path they name —
``benchmarks/…``, ``results/…``, ``tests/…``, ``src/…``, ``examples/…`` —
must exist, so a deleted script or an uncommitted record cannot leave a
citation behind.  The same goes for variables: every ``REPRO_*`` name in
those documents and under ``src/`` is one the knob table declares, and
README's copy of the table is the rendered one.
"""

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


# -- a variable named is a variable that exists --------------------------------

_VARIABLE = re.compile(r"REPRO_[A-Z_]+")
#: not execution knobs: a workload size, and where the cost model caches rates
NOT_KNOBS = {"REPRO_BENCH_SCALE", "REPRO_COST_CACHE"}
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
