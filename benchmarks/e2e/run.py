"""Entry point named in ``BENCHMARK.json``:
``python3 benchmarks/e2e/run.py --workload W --seed N --seconds T --trace 0|1``.

Prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  Needs the checkout's ``src/`` tree; without it, exits non-zero.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT))

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} is missing: this benchmark measures that library")
    from benchmarks.e2e.driver import contract_main

    sys.exit(contract_main())
