"""End-to-end smoke of a primary/replica pair of ``python -m repro.server``
processes (the CI ``replication-smoke`` job runs exactly this: ``pytest -m
smoke``): replicate writes, SIGKILL the primary, promote the replica over
the wire, check the failed-over client can write again, and validate the
replica's replication gauges on ``/metrics`` with the checked-in parser."""

import time
import urllib.request

import pytest

from repro.client import FailoverError, RemoteSession

from .prom_parser import parse_and_validate
from .test_smoke_obs import _Servers

pytestmark = pytest.mark.smoke


def test_replication_smoke(tmp_path):
    with _Servers(tmp_path) as servers:
        primary, host, port = servers.boot("--changelog", "primary.log")
        replica, rhost, rport = servers.boot(
            "--changelog", "replica.log",
            "--replicate-from", f"{host}:{port}",
            "--replica-name", "r1", "--telemetry-port", "0",
        )
        telemetry = replica.stdout.readline().strip()
        tport = int(telemetry.rsplit(":", 1)[1])

        db = RemoteSession([f"{host}:{port}", f"{rhost}:{rport}"])
        db.consult_string("edge(1, 2). edge(2, 3).")
        db.insert("edge", 3, 4)

        with RemoteSession(rhost, rport) as reader:
            deadline = time.time() + 10
            while time.time() < deadline:
                rows = sorted(reader.query("edge(X, Y)").tuples())
                if rows == [(1, 2), (2, 3), (3, 4)]:
                    break
                time.sleep(0.05)
            assert rows == [(1, 2), (2, 3), (3, 4)], rows

        primary.kill()
        primary.wait(timeout=30)
        with pytest.raises(FailoverError):
            db.insert("edge", 4, 5)  # no primary to take the write

        db.promote(f"{rhost}:{rport}")
        db.insert("edge", 4, 5)
        rows = sorted(db.query("edge(X, Y)").tuples())
        assert rows == [(1, 2), (2, 3), (3, 4), (4, 5)], rows
        db.close()

        url = f"http://127.0.0.1:{tport}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            families = parse_and_validate(response.read().decode())
        last_seq = families["coral_replication_last_seq"]
        assert last_seq.samples[0].value >= 3, last_seq.samples
        applied = {
            s.labels.get("event"): s.value
            for s in families["coral_replication_events"].samples
        }
        assert applied.get("applied", 0) >= 2, applied
        assert applied.get("promotions", 0) >= 1, applied

        replica.terminate()
        out, _ = replica.communicate(timeout=30)
        assert "clean shutdown" in out, out
        assert replica.returncode == 0, replica.returncode
