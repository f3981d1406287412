"""Task code is deterministic and leak-free, checked by running it.

Every registered join, on every engine and both shuffle backends, must hand
back everything it opened by the time ``run_join`` returns: no worker
process or thread, no file descriptor, no spill file.  And its facts —
results, counters, shuffle accounting — must not depend on the interpreter's
string-hash salt, which differs between the processes of a real cluster
(a forked pool inherits its parent's salt, so the cross-engine suites cannot
see this).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.datasets import generate_forest
from tests.test_plan_equivalence import ALL_JOINS, ENGINES, PAIRS, fingerprint, run_one, s_for

REPO_ROOT = Path(__file__).resolve().parent.parent
FD_DIR = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
HASH_SEEDS = ("1", "2")

#: what a subprocess prints: the pickled fingerprint of every join over
#: both input shapes
FINGERPRINT_ALL = """
import pickle, sys
from repro.datasets import generate_forest
from tests.test_plan_equivalence import ALL_JOINS, PAIRS, fingerprint, run_one, s_for
data = generate_forest(120, seed=3)
facts = {
    (name, pair): fingerprint(run_one(name, data, s_for(pair, data))[0])
    for name in ALL_JOINS for pair in PAIRS
}
sys.stdout.buffer.write(pickle.dumps(facts))
"""


@pytest.fixture(scope="module")
def data():
    return generate_forest(120, seed=3)


def held() -> tuple[int, set, set]:
    """Open descriptors, live child processes and live threads, now."""
    return (
        len(os.listdir(FD_DIR)),
        set(multiprocessing.active_children()),
        set(threading.enumerate()),
    )


class TestJoinReleasesEverything:
    @pytest.fixture(scope="class", autouse=True)
    def process_singletons(self, data):
        # the first process pool of an interpreter maps multiprocessing's
        # shared-memory heap, which stays for the interpreter's lifetime
        run_one("pgbj", data, engine="processes-pooled", max_workers=2)

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("spill", (False, True), ids=("memory", "spill"))
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_run_join_leaves_nothing_open(self, name, engine, spill, pair, data, tmp_path):
        backend = dict(memory_budget=0, spill_dir=str(tmp_path)) if spill else {}
        s = s_for(pair, data)
        before = held()
        run_one(name, data, s, engine=engine, max_workers=2, **backend)
        assert held() == before
        assert list(tmp_path.iterdir()) == []


class TestFactsIndependentOfHashSeed:
    @pytest.fixture(scope="class")
    def facts_by_seed(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]))
        facts = {}
        for seed in HASH_SEEDS:
            done = subprocess.run(
                [sys.executable, "-c", FINGERPRINT_ALL],
                env=dict(env, PYTHONHASHSEED=seed),
                cwd=REPO_ROOT,
                capture_output=True,
                check=True,
                timeout=300,
            )
            facts[seed] = pickle.loads(done.stdout)
        return facts

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_same_facts_under_every_seed(self, name, pair, facts_by_seed, data):
        here = fingerprint(run_one(name, data, s_for(pair, data))[0])
        for seed in HASH_SEEDS:
            assert facts_by_seed[seed][name, pair] == here, f"PYTHONHASHSEED={seed}"
