"""End-to-end smoke of a sharded ``python -m repro.server --workers 4`` (the
CI ``shard-smoke`` job runs exactly this: ``pytest -m smoke``): mixed load
through an unmodified ``RemoteSession``, a partitioned consult re-printed by
the router and read back, one worker SIGKILLed and restarted by its
supervisor while the client rides out the window, and the router's
aggregated ``/metrics`` validated with the checked-in parser."""

import os
import re
import signal
import time
import urllib.request

import pytest

from repro.client import RemoteSession

from .prom_parser import parse_and_validate
from .test_smoke_obs import _Servers

pytestmark = pytest.mark.smoke


def test_shard_smoke(tmp_path):
    (tmp_path / "shards.map").write_text("# smoke routing\nscratch = *\n")
    with _Servers(tmp_path) as servers:
        proc, host, port = servers.boot(
            "--workers", "4", "--shard-map", "shards.map",
            "--worker-heartbeat", "0.2", "--telemetry-port", "0",
        )
        pids = {}
        for _ in range(4):
            line = proc.stdout.readline().strip()
            worker = re.match(r"coral-server worker (\d+) on \S+ pid (\d+)", line)
            assert worker, line
            pids[int(worker.group(1))] = int(worker.group(2))
        telemetry = proc.stdout.readline().strip()
        _, _, tport = telemetry.rsplit(" ", 1)[1].rpartition(":")

        with RemoteSession(host, port, restart_retries=60, backoff=0.1) as db:
            # mixed load: a pinned module + a partitioned relation
            db.consult_string(
                "edge(1, 2). edge(2, 3). edge(3, 4)."
                " module tc. export path(bf)."
                " path(X, Y) :- edge(X, Y)."
                " path(X, Y) :- edge(X, Z), path(Z, Y)."
                " end_module."
            )
            for i in range(40):
                assert db.insert("scratch", i, i + 1)
            # the router prints a partitioned consult's facts again for the
            # workers: the string and the negative number must survive it
            db.consult_string('scratch(-1, "O\\"Brien").')
            assert db.query("scratch(-1, Y)").tuples() == [(-1, 'O"Brien')]
            assert len(db.query("path(1, X)").all()) == 3
            assert len(db.query("scratch(X, Y)").all()) == 41

            stats = db.stats()
            assert stats["role"] == "router", stats["role"]
            assert stats["sharding"]["workers_up"] == 4, stats

            # workers hold their shard in memory: kill one that does NOT own
            # the tc module, so the pinned data survives and only the
            # victim's scratch partition is lost
            owners = set(stats["sharding"]["learned_pins"].values())
            victim = min(i for i in stats["workers"] if int(i) not in owners)
            os.kill(pids[int(victim)], signal.SIGKILL)

            # clients ride out the restart on retriable errors: reads and
            # writes keep succeeding during the bounce
            deadline = time.monotonic() + 60
            recovered = False
            while time.monotonic() < deadline and not recovered:
                assert len(db.query("path(1, X)").all()) == 3
                assert db.insert("scratch", 100, 101)
                assert db.delete("scratch", 100, 101)
                info = db.stats()["workers"][victim]
                recovered = info["state"] == "up" and info["restarts"] >= 1
                time.sleep(0.1)
            assert recovered, db.stats()["workers"]
            assert db.counters["failovers"] == 0, db.counters

        url = f"http://127.0.0.1:{int(tport)}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            families = parse_and_validate(response.read().decode())
        assert "coral_router_requests" in families, sorted(families)
        restarts = families["coral_router_worker_restarts"]
        assert any(
            s.labels.get("worker") == victim and s.value >= 1
            for s in restarts.samples
        ), restarts.samples
        workers_seen = {
            s.labels["worker"]
            for family in families.values()
            for s in family.samples
            if "worker" in s.labels
        }
        assert {"0", "1", "2", "3"} <= workers_seen, workers_seen

        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert "clean shutdown" in out, out
        assert proc.returncode == 0, proc.returncode
