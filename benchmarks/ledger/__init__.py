"""The perf ledger: one harness, four workloads, end-to-end and per-layer
metrics with checked-in bounds (BENCHMARK.json, README.md in this directory).

Run it with ``python3 benchmarks/ledger/run.py`` (or ``PYTHONPATH=src python
-m benchmarks.ledger``) from the repository root.
"""
