"""End-to-end smoke of the ``python -m repro.server`` entrypoint (the CI
``server-smoke`` job runs exactly this: ``pytest -m smoke``): boot it, talk
to it over TCP with a ``RemoteSession``, and check that it shuts down
cleanly on SIGINT."""

import signal

import pytest

from repro.client import RemoteSession

from .test_smoke_obs import _Servers

pytestmark = pytest.mark.smoke


def test_server_smoke(tmp_path):
    with _Servers(tmp_path) as servers:
        proc, host, port = servers.boot()
        with RemoteSession(host, port) as db:
            db.consult_string("edge(1, 2). edge(2, 3).")
            assert sorted(db.query("edge(X, Y)").tuples()) == [(1, 2), (2, 3)]
            assert db.stats()["connections"]["active"] == 1
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert "clean shutdown" in out, out
        assert proc.returncode == 0, proc.returncode
