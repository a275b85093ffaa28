"""``PYTHONPATH=src python -m benchmarks.ledger`` — same as ``run.py``."""

import sys

from .harness import main

sys.exit(main())
