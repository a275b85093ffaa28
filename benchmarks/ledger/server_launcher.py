"""The traced server: install the span wrappers, then run ``repro.server``.

``python -m benchmarks.ledger.server_launcher --dump-dir DIR -- <server args>``
is the harness-owned stand-in for ``python -m repro.server`` on traced
passes.  SIGUSR1 writes the recorder's totals so far to
``DIR/snapshot-<n>.json`` (the harness brackets the traced steps with two of
them); on exit ``DIR/final.json`` gets the totals and the retained spans.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from . import layers, trace


def _write_json(path: str, payload) -> None:
    with open(path + ".tmp", "w", encoding="utf-8") as out:
        json.dump(payload, out)
    os.replace(path + ".tmp", path)  # readers never see a partial file


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dump-dir", required=True)
    parser.add_argument("server_args", nargs="*")
    args = parser.parse_args(argv)

    recorder = trace.Recorder(keep_spans=5_000)
    installed = trace.install(recorder, layers.TARGETS)
    snapshots = 0

    def dump_snapshot(signum, frame) -> None:
        nonlocal snapshots
        snapshots += 1
        _write_json(
            os.path.join(args.dump_dir, f"snapshot-{snapshots}.json"),
            recorder.snapshot(),
        )

    signal.signal(signal.SIGUSR1, dump_snapshot)
    from repro.server.__main__ import main as server_main

    try:
        return server_main(args.server_args)
    finally:
        trace.uninstall(installed)
        _write_json(
            os.path.join(args.dump_dir, "final.json"),
            {"totals": recorder.snapshot(), "spans": recorder.spans()},
        )


if __name__ == "__main__":
    sys.exit(main())
