"""End-to-end telemetry and distributed-trace smokes against real
``python -m repro.server`` processes (the CI ``telemetry-smoke`` and
``trace-smoke`` jobs run exactly these: ``pytest -m smoke``)."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.client import RemoteSession
from repro.obs.disttrace import TraceCollector

from .prom_parser import parse_and_validate
from .trace_schema import validate_chrome_trace

pytestmark = pytest.mark.smoke

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


class _Servers:
    """Boots ``python -m repro.server`` processes; kills leftovers on exit."""

    def __init__(self, cwd):
        self.cwd = str(cwd)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + self.env.get("PYTHONPATH", "").split(os.pathsep)
        )
        self.procs = []

    def boot(self, *flags):
        """Start one server; returns (proc, host, port) from its banner."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0", *flags],
            stdout=subprocess.PIPE,
            text=True,
            cwd=self.cwd,
            env=self.env,
        )
        self.procs.append(proc)
        line = proc.stdout.readline().strip()
        assert line.startswith("coral-server listening on "), line
        host, _, port = line.split()[3].rpartition(":")
        return proc, host, int(port)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        # SIGINT first: a router stops its supervised workers on the way
        # out, which a SIGKILL would leave running
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.headers["Content-Type"], response.read().decode()


def test_telemetry_smoke(tmp_path):
    """A server with a telemetry port and a flight recorder: drive real
    requests, then scrape /healthz, /metrics (validated by the checked-in
    Prometheus text parser) and /debug/flight."""
    with _Servers(tmp_path) as servers:
        proc, host, port = servers.boot(
            "--telemetry-port", "0", "--flight-recorder"
        )
        telemetry = proc.stdout.readline().strip()
        assert telemetry.startswith("coral-server telemetry on "), telemetry
        _, _, tport = telemetry.rsplit(" ", 1)[1].rpartition(":")
        base = f"http://127.0.0.1:{int(tport)}"

        with RemoteSession(host, port) as db:
            db.consult_string(
                "edge(1, 2). edge(2, 3)."
                " module tc. export path(bf)."
                " path(X, Y) :- edge(X, Y)."
                " path(X, Y) :- edge(X, Z), path(Z, Y)."
                " end_module."
            )
            assert len(db.query("path(1, X)").all()) == 2

        _, health = _get(f"{base}/healthz")
        assert json.loads(health)["status"] == "ok", health

        content_type, scrape = _get(f"{base}/metrics")
        assert "text/plain" in content_type
        families = parse_and_validate(scrape)
        kinds = {family.kind for family in families.values()}
        assert {"counter", "gauge", "histogram"} <= kinds, kinds
        requests = families["coral_server_requests"]
        assert any(s.labels.get("op") == "FETCH" for s in requests.samples)
        latency = families["coral_server_request_seconds"]
        assert any(s.name.endswith("_bucket") for s in latency.samples)

        _, flight = _get(f"{base}/debug/flight")
        flight_lines = flight.splitlines()
        assert flight_lines, "flight ring empty after evaluation"
        json.loads(flight_lines[-1])

        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert "clean shutdown" in out, out
        assert proc.returncode == 0, proc.returncode


def test_trace_smoke(tmp_path):
    """A router + 2 supervised workers and a primary/replica pair, all
    draining spans into one --span-dir: one sampled partitioned query and
    one sampled replicated write each stitch spans from at least 3
    processes, and the assembled trace passes the golden Chrome schema."""
    spans_dir = str(tmp_path / "spans")
    os.makedirs(spans_dir)
    (tmp_path / "shards.map").write_text("# trace routing\nedge = *\n")
    with _Servers(tmp_path) as servers:
        _, host, port = servers.boot(
            "--workers", "2", "--shard-map", "shards.map",
            "--trace-sample", "1", "--span-dir", spans_dir,
        )
        _, phost, pport = servers.boot(
            "--changelog", "primary.log",
            "--trace-sample", "1", "--span-dir", spans_dir,
            "--process-name", "primary",
        )
        _, rhost, rport = servers.boot(
            "--changelog", "replica.log",
            "--replicate-from", f"{phost}:{pport}",
            "--replica-name", "r1",
            "--span-dir", spans_dir, "--process-name", "replica",
        )

        # a sampled partitioned query scatters over both workers: one trace
        # id must come back carrying client, router and per-worker spans
        with RemoteSession(
            host, port, trace_sample=1.0, trace_dir=spans_dir,
            process_name="client-router",
        ) as db:
            for i in range(12):
                assert db.insert("edge", i, i + 1)
            rows = sorted(db.query("edge(X, Y)").tuples())
            assert rows == [(i, i + 1) for i in range(12)], rows
            query_trace = db.last_trace_id
            spans = db.trace()
        processes = {s["process"] for s in spans}
        assert {"client-router", "router", "worker-0", "worker-1"} <= processes

        # a sampled replicated write reaches the replica's apply loop under
        # the writer's trace id
        with RemoteSession(
            phost, pport, trace_sample=1.0, trace_dir=spans_dir,
            process_name="client-primary",
        ) as db:
            assert db.insert("edge", 100, 101)
            write_trace = db.last_trace_id
        with RemoteSession(rhost, rport) as reader:
            deadline = time.time() + 10
            applied = False
            while time.time() < deadline and not applied:
                applied = (100, 101) in reader.query("edge(X, Y)").tuples()
                time.sleep(0.05)
            assert applied, "replica never applied the traced write"

        collector = TraceCollector()
        assert collector.load_dir(spans_dir) > 0
        write_procs = set(collector.processes(write_trace))
        assert {"client-primary", "primary", "replica"} <= write_procs

        # the wire-gathered spans assemble into a valid Chrome trace
        collector.add_spans(spans)
        validate_chrome_trace(collector.assemble(query_trace))
