"""Script entry point: ``python3 benchmarks/ledger/run.py ...`` from the
repository root (what BENCHMARK.json's ``command`` runs).  It only puts the
repository and ``src/`` on the import path — in place of this directory,
whose ``trace.py`` would otherwise shadow the standard library's — and
hands over to ``benchmarks.ledger.harness``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

try:
    from benchmarks.ledger.harness import main  # noqa: E402
except ImportError as exc:
    sys.exit(f"ledger: run from a checkout of the repository ({exc})")

if __name__ == "__main__":
    sys.exit(main())
