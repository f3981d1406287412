"""A path named is a path that exists.

README.md, the CI workflow and the verify skill tell people (and runners)
which files to open and run.  Every concrete repo path they name —
``benchmarks/…``, ``results/…``, ``tests/…``, ``src/…``, ``examples/…`` —
must exist, so a deleted script or an uncommitted record cannot leave a
citation behind.
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
