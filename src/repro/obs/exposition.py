"""Prometheus text-format exposition and the telemetry HTTP endpoint.

The ROADMAP's north star is a server under heavy multi-client traffic;
that is undrivable without scrapeable metrics.  This module renders any
:class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
exposition format 0.0.4 (``# HELP``/``# TYPE`` comments, escaped label
values, and for histograms the cumulative ``_bucket{le=...}`` series plus
``_sum``/``_count``) and serves it from a stdlib ``http.server`` thread:

* ``GET /metrics``  — the rendered registries (the scrape target);
* ``GET /healthz``  — liveness: ``200 ok`` (or ``503`` if a health
  callable says otherwise);
* ``GET /debug/flight`` — the live flight-recorder ring as JSON lines
  (404 when no recorder is attached);
* ``GET /debug/trace/<id>`` — one assembled cross-process Chrome trace
  for a distributed trace id (:mod:`repro.obs.disttrace`); 404 when no
  trace lookup is attached or the id recorded no spans.

Start it through ``CoralServer(telemetry_port=...)`` — which wires in the
server's registry and flight recorder and ties the endpoint's lifecycle to
the query server's — or standalone::

    telemetry = TelemetryServer(port=9464, registries=[registry])
    telemetry.start()
    ... urllib.request.urlopen(telemetry.url + "/metrics") ...
    telemetry.shutdown()

No third-party client library is involved: the format is line-oriented
text, and ``tests/prom_parser.py`` round-trips it in CI.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, List, Optional, Tuple as PyTuple

from .flight import FlightRecorder
from .metrics import MetricsRegistry

_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: every exposed family name starts with this (which also makes it legal)
NAMESPACE = "coral"


def metric_name(name: str) -> str:
    """Our dotted metric names (``server.request.seconds``) as legal
    Prometheus names (``coral_server_request_seconds``)."""
    return f"{NAMESPACE}_{_SANITIZE.sub('_', name)}"


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _labels_text(names, values, extra: str = "") -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _SnapshotMetric:
    """A metric reconstructed from a ``MetricsRegistry.collect()`` entry,
    with extra labels appended to every series.

    This is how a shard router re-exposes its workers' metrics: each
    worker's STATS payload carries ``registry.collect()``, and the router
    renders those snapshots next to its own live registry with a
    ``worker="N"`` label — one scrape shows the whole fleet.  Histogram
    snapshot values already carry ``boundaries``/``bucket_counts``/``sum``/
    ``count``, exactly what the renderer reads off a live histogram.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "_values", "_extra")

    def __init__(
        self,
        name: str,
        entry: Dict[str, object],
        extra_names: PyTuple[str, ...],
        extra_values: PyTuple[str, ...],
    ) -> None:
        self.name = name
        self.kind = str(entry.get("kind", "counter"))
        self.help = str(entry.get("help", "") or name)
        self.labelnames = tuple(entry.get("labels", ())) + extra_names
        self._values = entry.get("values", {})
        self._extra = extra_values

    def collect(self) -> Dict[PyTuple[str, ...], object]:
        out: Dict[PyTuple[str, ...], object] = {}
        for key, value in self._values.items():
            # collect() flattened the label tuple with '|'; reverse it
            base = tuple(key.split("|")) if key else ()
            out[base + self._extra] = value
        return out


def snapshot_metrics(
    snapshots: Iterable[
        PyTuple[Dict[str, str], Dict[str, Dict[str, object]]]
    ],
) -> List[_SnapshotMetric]:
    """Adapter metrics for ``(extra_labels, collected)`` pairs, ready to
    render alongside live registries."""
    out: List[_SnapshotMetric] = []
    for extra_labels, collected in snapshots:
        if not isinstance(collected, dict):
            continue
        extra_names = tuple(extra_labels.keys())
        extra_values = tuple(str(v) for v in extra_labels.values())
        for name in sorted(collected):
            entry = collected[name]
            if isinstance(entry, dict):
                out.append(
                    _SnapshotMetric(name, entry, extra_names, extra_values)
                )
    return out


def render_prometheus(
    registries: Iterable[MetricsRegistry],
    snapshots: Iterable[
        PyTuple[Dict[str, str], Dict[str, Dict[str, object]]]
    ] = (),
) -> str:
    """Every metric of every registry, one text payload.

    Same-named metrics from different registries merge into one family
    when their kinds agree; a kind clash keeps the first and skips the
    rest (exposition must never raise into a scrape handler).
    ``snapshots`` adds ``(extra_labels, collected)`` pairs — remote
    registries captured as :meth:`MetricsRegistry.collect` dicts, each
    rendered with its extra labels (see :class:`_SnapshotMetric`).
    """
    families: Dict[str, Dict[str, object]] = {}
    order: List[str] = []
    sources: List[PyTuple[object, ...]] = [
        tuple(registry.metrics()) for registry in registries
    ]
    sources.append(tuple(snapshot_metrics(snapshots)))
    for metrics in sources:
        for metric in metrics:
            family = metric_name(metric.name)
            slot = families.get(family)
            if slot is None:
                families[family] = {
                    "kind": metric.kind,
                    "help": metric.help or metric.name,
                    "metrics": [metric],
                }
                order.append(family)
            elif slot["kind"] == metric.kind:
                slot["metrics"].append(metric)
    lines: List[str] = []
    for family in order:
        slot = families[family]
        kind = slot["kind"]
        lines.append(f"# HELP {family} {_escape_help(slot['help'])}")
        lines.append(f"# TYPE {family} {kind}")
        for metric in slot["metrics"]:
            names = metric.labelnames
            if kind == "histogram":
                for values, snap in sorted(metric.collect().items()):
                    cumulative = 0
                    for edge, count in zip(
                        snap["boundaries"], snap["bucket_counts"]
                    ):
                        cumulative += count
                        le = f'le="{_format_value(edge)}"'
                        lines.append(
                            f"{family}_bucket"
                            f"{_labels_text(names, values, le)}"
                            f" {cumulative}"
                        )
                    inf_label = 'le="+Inf"'
                    lines.append(
                        f"{family}_bucket"
                        f"{_labels_text(names, values, inf_label)}"
                        f" {snap['count']}"
                    )
                    lines.append(
                        f"{family}_sum{_labels_text(names, values)}"
                        f" {_format_value(snap['sum'])}"
                    )
                    lines.append(
                        f"{family}_count{_labels_text(names, values)}"
                        f" {snap['count']}"
                    )
            else:
                for values, value in sorted(metric.collect().items()):
                    lines.append(
                        f"{family}{_labels_text(names, values)}"
                        f" {_format_value(value)}"
                    )
    return "\n".join(lines) + ("\n" if lines else "")


class _Handler(BaseHTTPRequestHandler):
    server: "ThreadingHTTPServer"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # scrapes every few seconds must not spam stderr

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        telemetry: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = telemetry.render().encode("utf-8")
                self._send(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    body,
                )
            elif path == "/healthz":
                healthy, detail = telemetry.health()
                payload = json.dumps(
                    {"status": "ok" if healthy else "unhealthy",
                     "detail": detail}
                ).encode("utf-8")
                self._send(
                    200 if healthy else 503, "application/json", payload
                )
            elif path == "/debug/flight":
                flight = telemetry.flight
                if flight is None:
                    self._send(
                        404, "text/plain; charset=utf-8",
                        b"no flight recorder attached\n",
                    )
                else:
                    body = flight.ring.to_jsonl().encode("utf-8")
                    self._send(200, "application/x-ndjson", body)
            elif path.startswith("/debug/trace/"):
                trace_id = path[len("/debug/trace/"):]
                assembled = None
                if telemetry.trace_lookup is not None and trace_id:
                    assembled = telemetry.trace_lookup(trace_id)
                if assembled is None:
                    self._send(
                        404, "text/plain; charset=utf-8",
                        b"no such trace\n",
                    )
                else:
                    self._send(
                        200, "application/json",
                        json.dumps(assembled, sort_keys=True).encode("utf-8"),
                    )
            else:
                self._send(
                    404, "text/plain; charset=utf-8", b"not found\n"
                )
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # scraper hung up mid-response; nothing to salvage


class TelemetryServer:
    """The operator endpoint: a daemon HTTP thread serving ``/metrics``,
    ``/healthz``, ``/debug/flight``, and ``/debug/trace/<id>``."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registries: Iterable[MetricsRegistry] = (),
        flight: Optional[FlightRecorder] = None,
        health: Optional[Callable[[], PyTuple[bool, str]]] = None,
        snapshots: Optional[
            Callable[
                [],
                Iterable[
                    PyTuple[Dict[str, str], Dict[str, Dict[str, object]]]
                ],
            ]
        ] = None,
        trace_lookup: Optional[
            Callable[[str], Optional[Dict[str, object]]]
        ] = None,
    ) -> None:
        self._registries: List[MetricsRegistry] = list(registries)
        self.flight = flight
        self._health = health
        #: trace id -> assembled Chrome trace dict (or None when unknown);
        #: backs ``/debug/trace/<id>``
        self.trace_lookup = trace_lookup
        #: called per scrape: (extra_labels, collected) pairs for remote
        #: registries — a shard router's cached worker snapshots
        self._snapshots = snapshots
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.telemetry = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- what the handlers serve ----------------------------------------------

    def render(self) -> str:
        snapshots: Iterable = ()
        if self._snapshots is not None:
            try:
                snapshots = list(self._snapshots())
            except Exception:  # a scrape must render what it can
                snapshots = ()
        return render_prometheus(self._registries, snapshots)

    def health(self) -> PyTuple[bool, str]:
        if self._health is None:
            return True, "ok"
        try:
            return self._health()
        except Exception as exc:  # health probes must degrade, not raise
            return False, f"health check failed: {exc}"

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> PyTuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "TelemetryServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="coral-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
