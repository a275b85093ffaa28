"""Prometheus exposition: the text renderer, the HTTP telemetry endpoint,
and the end-to-end scrape of a live CoralServer — every scrape is validated
by the checked-in parser (tests/prom_parser.py), the same one the CI
telemetry-smoke job runs."""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro import Session
from repro.client import RemoteSession
from repro.obs import FlightRecorder, MetricsRegistry, TelemetryServer
from repro.obs.exposition import metric_name, render_prometheus
from repro.server import CoralServer

from .prom_parser import ParseFailure, parse_and_validate, parse_text

TC_PROGRAM = """
    edge(1, 2). edge(2, 3). edge(3, 4).

    module tc.
    export path(bf, ff).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    end_module.
"""


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode("utf-8")


class TestMetricName:
    def test_dotted_names_become_underscored(self):
        assert metric_name("server.request.seconds") == (
            "coral_server_request_seconds"
        )

    def test_hostile_characters_sanitized(self):
        assert metric_name("a-b c/d") == "coral_a_b_c_d"


class TestRenderer:
    def _registry(self):
        registry = MetricsRegistry()
        counter = registry.counter("server.requests.total", "requests", ("op",))
        counter.inc(3, "QUERY")
        counter.inc(7, "FETCH")
        gauge = registry.gauge("server.connections.active", "connections")
        gauge.set(2)
        histogram = registry.histogram("server.request.seconds", "latency", ("op",))
        for value in (0.0002, 0.001, 0.02, 0.5):
            histogram.observe(value, "FETCH")
        return registry

    def test_roundtrip_through_parser(self):
        families = parse_and_validate(render_prometheus([self._registry()]))
        kinds = {family.kind for family in families.values()}
        assert kinds == {"counter", "gauge", "histogram"}
        counter = families["coral_server_requests_total"]
        by_op = {s.labels["op"]: s.value for s in counter.samples}
        assert by_op == {"QUERY": 3.0, "FETCH": 7.0}

    def test_histogram_buckets_are_cumulative_with_inf(self):
        families = parse_and_validate(render_prometheus([self._registry()]))
        histogram = families["coral_server_request_seconds"]
        buckets = [
            s for s in histogram.samples if s.name.endswith("_bucket")
        ]
        count = [s for s in histogram.samples if s.name.endswith("_count")]
        inf = [s for s in buckets if s.labels["le"] == "+Inf"]
        assert inf and count
        assert inf[0].value == count[0].value == 4.0

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("odd.label", "escapes", ("path",))
        hostile = 'quote:" backslash:\\ newline:\n'
        counter.inc(1, hostile)
        families = parse_and_validate(render_prometheus([registry]))
        (sample,) = families["coral_odd_label"].samples
        assert sample.labels["path"] == hostile

    def test_merges_registries_and_skips_kind_clashes(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("shared.metric", "from first").inc(1)
        second.gauge("shared.metric", "clashes").set(9)
        second.counter("only.second", "fine").inc(2)
        families = parse_and_validate(render_prometheus([first, second]))
        # the clash keeps the first family rather than emitting an invalid
        # document with two TYPE lines for one name
        assert families["coral_shared_metric"].kind == "counter"
        assert families["coral_only_second"].samples[0].value == 2.0

    def test_unlabelled_histogram(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("plain.seconds", "no labels")
        histogram.observe(0.01)
        families = parse_and_validate(render_prometheus([registry]))
        assert families["coral_plain_seconds"].kind == "histogram"


class TestParserRejectsBrokenDocuments:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ParseFailure, match="no # TYPE"):
            parse_and_validate("orphan_metric 1\n")

    def test_noncumulative_buckets_rejected(self):
        text = render_prometheus([TestRenderer()._registry()])
        broken = text.replace('le="+Inf"} 4', 'le="+Inf"} 1', 1)
        with pytest.raises(ParseFailure):
            parse_and_validate(broken)

    def test_missing_count_rejected(self):
        text = "\n".join(
            [
                "# TYPE h histogram",
                'h_bucket{le="1"} 1',
                'h_bucket{le="+Inf"} 1',
                "h_sum 0.5",
            ]
        )
        with pytest.raises(ParseFailure, match="_count"):
            parse_and_validate(text)

    def test_help_text_attached(self):
        families = parse_text(
            "# HELP m the help\n# TYPE m counter\nm 1\n"
        )
        assert families["m"].help == "the help"


class TestTelemetryServer:
    def test_serves_metrics_healthz_and_404(self):
        registry = MetricsRegistry()
        registry.counter("test.hits", "hits").inc(5)
        with TelemetryServer(port=0, registries=[registry]) as server:
            base = server.url
            families = parse_and_validate(_scrape(f"{base}/metrics"))
            assert families["coral_test_hits"].samples[0].value == 5.0
            health = json.loads(_scrape(f"{base}/healthz"))
            assert health["status"] == "ok"
            with pytest.raises(urllib.error.HTTPError) as info:
                _scrape(f"{base}/nope")
            assert info.value.code == 404

    def test_degraded_health_is_503(self):
        with TelemetryServer(
            port=0, health=lambda: (False, "storage wedged")
        ) as server:
            with pytest.raises(urllib.error.HTTPError) as info:
                _scrape(f"{server.url}/healthz")
            assert info.value.code == 503
            body = json.loads(info.value.read().decode())
            assert body["detail"] == "storage wedged"

    def test_flight_endpoint(self):
        recorder = FlightRecorder(capacity=16)
        recorder.event("hello", "test")
        with TelemetryServer(port=0, flight=recorder) as server:
            lines = _scrape(f"{server.url}/debug/flight").splitlines()
        events = [json.loads(line) for line in lines if line.strip()]
        assert any(event["name"] == "hello" for event in events)

    def test_flight_endpoint_404_without_recorder(self):
        with TelemetryServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as info:
                _scrape(f"{server.url}/debug/flight")
            assert info.value.code == 404


class TestServerEndToEnd:
    def test_live_scrape_has_all_three_kinds_with_labels(self):
        """The acceptance scrape: boot a CoralServer with a telemetry port,
        drive real requests through it, and validate the scrape."""
        session = Session()
        session.consult_string(TC_PROGRAM)
        server = CoralServer(session, port=0, telemetry_port=0, flight=True)
        server.start()
        try:
            with RemoteSession(*server.address) as db:
                assert len(db.query("path(1, X)").all()) == 3
            thost, tport = server.telemetry_address
            families = parse_and_validate(
                _scrape(f"http://{thost}:{tport}/metrics")
            )
        finally:
            server.shutdown()
            session.close()
        requests = families["coral_server_requests"]
        assert requests.kind == "counter"
        ops = {s.labels["op"] for s in requests.samples}
        # three answers fit QUERY's first batch: no FETCH was needed
        assert {"HELLO", "QUERY"} <= ops and "FETCH" not in ops
        gauge = families["coral_server_connections_active"]
        assert gauge.kind == "gauge"
        latency = families["coral_server_request_seconds"]
        assert latency.kind == "histogram"
        assert any(s.name.endswith("_bucket") for s in latency.samples)
        clients = families["coral_server_client_requests"]
        assert {"client"} == set(clients.samples[0].labels)
        preds = families["coral_server_query_predicates"]
        assert preds.samples[0].labels["pred"] == "path/2"

    def test_flight_ring_visible_over_http(self):
        session = Session()
        session.consult_string(TC_PROGRAM)
        server = CoralServer(session, port=0, telemetry_port=0, flight=True)
        server.start()
        try:
            with RemoteSession(*server.address) as db:
                db.query("path(1, X)").all()
            thost, tport = server.telemetry_address
            lines = _scrape(
                f"http://{thost}:{tport}/debug/flight"
            ).splitlines()
        finally:
            server.shutdown()
            session.close()
        events = [json.loads(line) for line in lines if line.strip()]
        assert events, "flight ring empty after evaluation"
        assert any(event["name"] == "fixpoint.iteration" for event in events)

    def test_no_telemetry_port_means_no_listener(self):
        session = Session()
        with CoralServer(session, port=0) as server:
            assert server.telemetry is None
            assert server.telemetry_address is None


def test_the_server_entry_point_loads_no_http_stack():
    """The exposition module (``http.server``, and with it ``http.client``
    and ``ssl``) loads only when a telemetry endpoint starts: a server
    started without one, or any ``import repro``, pays nothing for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    probe = (
        "import sys, repro.server.__main__\n"
        "print(sorted(m for m in ('http.server', 'http.client', 'ssl')"
        " if m in sys.modules))\n"
        "from repro.obs import TelemetryServer\n"
        "print('http.server' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["[]", "True"]
