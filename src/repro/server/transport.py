"""The transport core: everything about serving the wire protocol that does
not depend on *what* is being served.

The paper's architecture rests on one uniform get-next-tuple interface with
many implementations behind it (Sections 3, 5.6); the wire protocol lifts
that interface onto a socket, and :class:`FrameServer` is its one
server-side implementation.  It owns

* the ``ThreadingTCPServer``/handler pair, its lifecycle (``start``,
  ``serve_forever``, ``drain``, ``shutdown``, the context manager) and the
  optional telemetry endpoint;
* the framed read loop — ``io_timeout`` per frame, reaping at
  ``idle_timeout``, the ``net.accept``/``net.read``/``net.write`` fault
  points — and the connection table;
* the ``HELLO``/version/``BYE``/draining gate in front of every op;
* the exception-to-error-response mapping: whatever a handler raises, the
  client gets a typed ``ok: false`` answer on a connection that stays open;
* request accounting behind STATS (totals, per-op counters and latency,
  the trailing-rate window, cursor counts) under the subclass's metric
  prefix, and per-request distributed-trace set-up with its
  ``request.{op}`` span (:mod:`repro.obs.disttrace`).

A subclass supplies what differs between a database server and a shard
router: its op table (``_dispatch``), its per-connection record
(``connection_class``), what to free when a connection ends (``_release``),
the ops it still serves while draining (``drain_ops``) and its health
verdict (``_health``) — plus its own ``stats()`` sections.
:class:`~repro.server.CoralServer` and :class:`~repro.sharding.ShardRouter`
are the two subclasses.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple as PyTuple

from ..errors import CoralError, ProtocolError
from ..faults import FaultInjector, SimulatedCrash
from ..obs import EventTracer, MetricsRegistry, TelemetryServer
from ..obs.disttrace import HeadSampler, SpanBuffer, TraceCollector, TraceContext
from .protocol import (
    PROTOCOL_VERSION,
    FrameTimeout,
    error_response,
    read_frame,
    write_frame,
)

#: trailing window, in seconds, behind the STATS ``rates`` section
RATE_WINDOW = 30.0

#: default answers per QUERY or FETCH batch when the client does not say — one value for
#: every front end, so a router in front of a server changes no batch shapes
DEFAULT_BATCH = 64

#: distributed-trace spans a server or router buffers before it drops
SPAN_LIMIT = 20_000


class Connection:
    """Per-connection state every front end keeps: identity, handshake flag,
    open cursors.  Subclasses add their own slots."""

    __slots__ = ("conn_id", "peer", "peer_host", "greeted", "cursors", "sock")

    def __init__(self, conn_id: int, peer: str, sock) -> None:
        self.conn_id = conn_id
        self.peer = peer
        self.sock = sock
        # host only: the metric label for per-client counters (an ephemeral
        # port per connection would mint unbounded label series)
        self.peer_host = peer.rsplit(":", 1)[0] if ":" in peer else peer
        self.greeted = False
        self.cursors: Dict[int, object] = {}


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # pragma: no cover - thin shim, logic in server
        self.server.front._handle_connection(self.request)


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    front: "FrameServer"

    def handle_error(self, request, client_address) -> None:
        # whatever escapes a handler thread (in practice an injected
        # SimulatedCrash) must neither kill the server nor spray a stack
        # trace; the connection's state was already freed by the handler's
        # finally block
        self.front._m_errors.inc(1, "unhandled")


class FrameServer:
    """One TCP front speaking the framed request/response protocol; see the
    module docstring for what it owns and what a subclass supplies."""

    #: what kind of front this is: metric families are named
    #: ``{metric_prefix}.requests`` etc., HELLO answers ``repro.{…}/1``, and
    #: it is the noun in lifecycle errors and the event tracer's category.
    #: A subclass also sets ``role``, which STATS and /healthz report
    metric_prefix = "server"
    connection_class = Connection
    #: answers per QUERY/FETCH batch when the request names no ``max``
    batch_size = DEFAULT_BATCH
    #: ops still served while draining: open cursors may finish, no new
    #: work is admitted
    drain_ops: PyTuple[str, ...] = (
        "HELLO", "FETCH", "CLOSE_CURSOR", "STATS", "TRACE", "BYE"
    )

    def __init__(
        self,
        host: str,
        port: int,
        *,
        faults: Optional[FaultInjector],
        io_timeout: Optional[float],
        idle_timeout: Optional[float],
        trace_sample: float,
        span_dir: Optional[str],
        process_name: str,
        telemetry_port: Optional[int],
        telemetry_host: str,
        telemetry_extra: Dict[str, object],
        tracer: Optional[EventTracer] = None,
    ) -> None:
        self.faults = faults if faults is not None else FaultInjector()
        self.io_timeout = io_timeout
        self.idle_timeout = idle_timeout
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        #: distributed tracing (docs/OBSERVABILITY.md): head-sample this
        #: fraction of requests arriving without a wire ``trace`` context
        self.trace_sampler = HeadSampler(trace_sample)
        self.span_dir = span_dir
        self.process_name = process_name
        #: the request-scoped trace context, per handler thread
        self._trace_local = threading.local()
        self._draining = False
        self._serving = False
        #: rate-windowed request history for STATS (the @top dashboard):
        #: (perf_counter, answers) per request, bounded
        self._recent: deque = deque(maxlen=8192)
        self._started_at = time.perf_counter()
        #: guards the connection/cursor registry (never held during eval)
        self._state_lock = threading.Lock()
        self._connections: Dict[int, Connection] = {}
        self._next_conn = 0
        self._next_cursor = 0
        self._requests_total = 0
        self._connections_total = 0
        self._cursors_opened = 0
        self._cursors_closed = 0

        m, prefix = self.metrics, self.metric_prefix
        self._m_conns = m.counter(f"{prefix}.connections.total", "connections accepted")
        self._m_active = m.gauge(f"{prefix}.connections.active", "open connections")
        self._m_requests = m.counter(f"{prefix}.requests", "requests by op", ("op",))
        self._m_errors = m.counter(
            f"{prefix}.errors", "request failures by kind", ("kind",)
        )
        self._m_latency = m.histogram(
            f"{prefix}.request.seconds", "request service time", ("op",)
        )
        self._m_cursors_opened = m.counter(f"{prefix}.cursors.opened", "cursors opened")
        self._m_cursors_closed = m.counter(f"{prefix}.cursors.closed", "cursors closed")
        self._m_cursors_open = m.gauge(
            f"{prefix}.cursors.open", "cursors currently open"
        )
        self._m_trace_dropped = m.counter(
            "obs.trace.dropped",
            "trace events/spans dropped at bounded-buffer caps",
            ("buffer",),
        )
        if tracer is not None:
            tracer.on_drop = lambda: self._m_trace_dropped.inc(1, "events")
        #: bounded per-process buffer of distributed-trace spans, drained
        #: to <span_dir>/<process_name>.jsonl when a span directory is set
        self.spans = SpanBuffer(
            process_name,
            limit=SPAN_LIMIT,
            path=(
                os.path.join(span_dir, f"{process_name}.jsonl")
                if span_dir
                else None
            ),
            on_drop=lambda: self._m_trace_dropped.inc(1, "spans"),
        )
        #: the /metrics—/healthz—/debug endpoint (None = disabled)
        self.telemetry: Optional[TelemetryServer] = None
        if telemetry_port is not None:
            self.telemetry = TelemetryServer(
                port=telemetry_port,
                host=telemetry_host,
                registries=[self.metrics],
                health=self._health,
                trace_lookup=self._trace_lookup,
                **telemetry_extra,
            )
        self._tcp = _TCPServer((host, port), _Handler, bind_and_activate=True)
        self._tcp.front = self
        self._thread: Optional[threading.Thread] = None

    # -- what a subclass supplies --------------------------------------------

    def _dispatch(
        self, conn, op: str, header, body
    ) -> PyTuple[Dict[str, object], bytes, bool]:
        """Serve one admitted request: ``(response, body, keep_going)``.
        A subclass answers its own ops and falls through to this for the
        ones every front end answers alike."""
        if op == "STATS":
            return {"ok": True, "stats": self.stats()}, b"", True
        if op == "CLOSE_CURSOR":
            closed = self._close_cursor(conn, int(header.get("cursor", -1)))
            return {"ok": True, "closed": closed}, b"", True
        raise ProtocolError(f"unknown request op {op!r}")

    def _batch_limit(self, op: str, header) -> int:
        """A request's ``max`` answers per batch; fewer than one is
        refused."""
        limit = int(header.get("max", self.batch_size))
        if limit < 1:
            raise ProtocolError(f"{op} max must be >= 1, got {limit}")
        return limit

    def _close_cursor(self, conn, cursor_id: int) -> bool:
        """Abandon one of ``conn``'s cursors; False if it holds no such."""
        raise NotImplementedError

    def _release(self, conn) -> None:
        """Free whatever ``conn`` still holds (BYE, disconnect, shutdown);
        must be idempotent."""
        raise NotImplementedError

    def _health(self) -> PyTuple[bool, str]:
        """The ``/healthz`` verdict; subclasses refine a healthy one."""
        if self._draining:
            return False, "draining"
        if not self._serving:
            return False, "not serving"
        return True, f"serving ({self.role})"

    def _hello(self) -> Dict[str, object]:
        """The response to a well-formed HELLO."""
        return {
            "ok": True,
            "server": f"repro.{self.metric_prefix}/1",
            "version": PROTOCOL_VERSION,
        }

    def _begin(self) -> None:
        """Flip to serving and start the side services (both entry points)."""
        self._serving = True
        self._started_at = time.perf_counter()
        if self.telemetry is not None:
            self.telemetry.start()

    def _note_request(self, conn, op: str) -> None:
        """Per-request accounting beyond the shared counters."""

    def _takes_over(self, conn, sock, response) -> bool:
        """After a response went out: True when the subclass consumed the
        rest of the connection (REPL_HELLO inverts the socket's roles)."""
        return False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> PyTuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return host, port

    @property
    def telemetry_address(self) -> Optional[PyTuple[str, int]]:
        return self.telemetry.address if self.telemetry is not None else None

    def start(self):
        """Serve in a daemon thread; returns immediately."""
        if self._thread is not None:
            raise ProtocolError(f"{self.metric_prefix} already started")
        self._begin()
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"coral-{self.metric_prefix}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` — or until an
        exception (a SIGINT's KeyboardInterrupt) unwinds the loop."""
        try:
            self._begin()
            self._tcp.serve_forever(poll_interval=0.05)
        finally:
            # the loop is over (or never began: an interrupt can land in
            # _begin), so shutdown() has nothing left to stop
            self._serving = False

    def drain(self, timeout: float = 5.0) -> bool:
        """Graceful-shutdown step one: refuse new connections and new work,
        then wait (up to ``timeout`` seconds) for open cursors to finish.
        Returns True when every cursor drained, False on deadline — either
        way the server is ready for :meth:`shutdown`."""
        self._draining = True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.open_cursors() == 0:
                return True
            time.sleep(0.02)
        return self.open_cursors() == 0

    def shutdown(self) -> None:
        """Stop accepting, close the listening socket, sever and release
        every live connection."""
        if self.telemetry is not None:
            self.telemetry.shutdown()
        if self._serving:
            # BaseServer.shutdown blocks forever if serve_forever never ran
            self._tcp.shutdown()
            self._serving = False
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._state_lock:
            leftovers = list(self._connections.values())
            self._connections.clear()
        for conn in leftovers:
            # sever live connections so their handler threads exit (and
            # so an in-process "kill" looks to clients like a real one:
            # sockets die, in-flight requests fail at the transport layer).
            # shutdown(), not close(): closing from this thread neither
            # wakes a handler blocked in recv nor sends the client a FIN (the
            # woken handler closes the socket on its way out)
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client already hung up
            self._release(conn)
        self.spans.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- connection loop -----------------------------------------------------

    def _handle_connection(self, sock) -> None:
        if self._draining:
            return  # refusing new connections: drop before the handshake
        try:
            self.faults.check("net.accept")
        except OSError:
            self._m_errors.inc(1, "accept")
            return
        # bound every socket operation: a wedged or half-open client gets
        # io_timeout per frame, and a silent one is reaped at idle_timeout
        wait = self.io_timeout if self.io_timeout is not None else self.idle_timeout
        if wait is not None:
            sock.settimeout(wait)
        conn = self._register(sock)
        try:
            idle_deadline = (
                time.monotonic() + self.idle_timeout
                if self.idle_timeout is not None
                else None
            )
            while True:
                try:
                    self.faults.check("net.read")
                    frame = read_frame(sock)
                except FrameTimeout:
                    # nothing arrived within the socket timeout: idle, not
                    # wedged — keep waiting until the idle budget runs out
                    if (
                        idle_deadline is not None
                        and time.monotonic() >= idle_deadline
                    ):
                        self._m_errors.inc(1, "idle_reaped")
                        return
                    continue
                except (ProtocolError, OSError):
                    # client vanished, spoke garbage, or stalled mid-frame:
                    # drop it
                    self._m_errors.inc(1, "read")
                    return
                if frame is None:
                    return  # clean EOF
                if self.idle_timeout is not None:
                    idle_deadline = time.monotonic() + self.idle_timeout
                header, body = frame
                if not self._serve_request(conn, sock, header, body):
                    return
        finally:
            self._unregister(conn)

    def _serve_request(self, conn, sock, header, body) -> bool:
        """Dispatch one request and send its response; False ends the
        connection (BYE, handshake refusal, or a dead socket)."""
        op = str(header.get("op", ""))
        started = time.perf_counter()
        trace_ctx = self._request_trace(header)
        self._trace_local.ctx = trace_ctx
        wall = SpanBuffer.now() if trace_ctx is not None else 0.0
        with self._state_lock:
            self._requests_total += 1
        keep_going = True
        rbody = b""
        try:
            response, rbody, keep_going = self._admit(
                conn, op, header
            ) or self._dispatch(conn, op, header, body)
        except SimulatedCrash:
            raise  # chaos tests: nothing may swallow a simulated crash
        except CoralError as exc:
            self._m_errors.inc(1, type(exc).__name__)
            response = error_response(exc)
        except (ValueError, TypeError) as exc:
            # a well-formed frame carrying a malformed field (a non-integer
            # cursor or sequence, a list where a scalar belongs): answer a
            # clean protocol error instead of letting the handler thread die
            self._m_errors.inc(1, "ProtocolError")
            response = error_response(
                ProtocolError(f"malformed {op or '?'} field: {exc}")
            )
        except Exception as exc:
            # the boundary that must keep running: whatever a handler let
            # escape (a RecursionError, a bug in a registered builtin) is
            # still a typed refusal on a connection that stays usable
            self._m_errors.inc(1, "unhandled")
            response = error_response(
                CoralError(
                    f"{op or '?'} failed: {type(exc).__name__}: {exc}"
                )
            )
        self._m_requests.inc(1, op or "?")
        self._note_request(conn, op)
        self._m_latency.observe(time.perf_counter() - started, op or "?")
        answers = response.get("count", 0) if op in ("QUERY", "FETCH") else 0
        # deque.append is atomic; _rates() filters by age against RATE_WINDOW
        self._recent.append((time.perf_counter(), answers))
        if self.tracer is not None:
            self.tracer.complete(
                f"request.{op or '?'}", self.metric_prefix, started,
                conn=conn.conn_id,
            )
        if trace_ctx is not None and trace_ctx.sampled:
            # sampled either from the start or force-flipped by a slowlog
            # trip during dispatch — either way the hop is worth a span
            self.spans.record(
                trace_ctx,
                f"request.{op or '?'}",
                wall,
                SpanBuffer.now(),
                conn=conn.conn_id,
                ok=bool(response.get("ok")),
            )
        self._trace_local.ctx = None
        try:
            self.faults.check("net.write")
            write_frame(sock, response, rbody)
        except (ProtocolError, OSError):
            self._m_errors.inc(1, "write")
            return False
        if self._takes_over(conn, sock, response):
            return False
        return keep_going

    def _admit(self, conn, op: str, header):
        """The gate in front of the op table: a finished ``(response, body,
        keep_going)`` for the handshake and BYE, a raised refusal while
        draining, or None to let :meth:`_dispatch` answer."""
        if not conn.greeted:
            if op != "HELLO":
                refusal = ProtocolError(
                    f"first request must be HELLO, got {op!r}"
                )
                return error_response(refusal), b"", False
            version = header.get("version")
            if version != PROTOCOL_VERSION:
                refusal = ProtocolError(
                    f"protocol version mismatch: client speaks "
                    f"{version!r}, server speaks {PROTOCOL_VERSION}"
                )
                return error_response(refusal), b"", False
            conn.greeted = True
            return self._hello(), b"", True
        if op == "BYE":
            self._release(conn)
            return {"ok": True, "bye": True}, b"", False
        if self._draining and op not in self.drain_ops:
            raise ProtocolError(
                f"server is draining for shutdown; {op} refused"
            )
        return None

    def _register(self, sock):
        try:
            peer = "%s:%s" % sock.getpeername()[:2]
        except OSError:
            peer = "?"
        with self._state_lock:
            self._next_conn += 1
            conn = self.connection_class(self._next_conn, peer, sock)
            self._connections[conn.conn_id] = conn
            self._connections_total += 1
        self._m_conns.inc()
        self._m_active.inc()
        self._event(
            "net.accept", self.metric_prefix, conn=conn.conn_id, peer=peer
        )
        return conn

    def _unregister(self, conn) -> None:
        with self._state_lock:
            listed = self._connections.pop(conn.conn_id, None) is not None
        if listed:  # else shutdown() took the table, and releases what was on it
            self._release(conn)
        self._m_active.dec()
        self._event("net.close", self.metric_prefix, conn=conn.conn_id)

    # -- cursor accounting ---------------------------------------------------

    def _count_cursor_opened(self) -> int:
        """Mint the next cursor id and count the cursor open."""
        with self._state_lock:
            self._next_cursor += 1
            self._cursors_opened += 1
            cursor_id = self._next_cursor
        self._m_cursors_opened.inc()
        self._m_cursors_open.inc()
        return cursor_id

    def _count_cursors_closed(self, count: int = 1) -> None:
        with self._state_lock:
            self._cursors_closed += count
        self._m_cursors_closed.inc(count)
        self._m_cursors_open.dec(count)

    def open_cursors(self) -> int:
        with self._state_lock:
            return sum(len(c.cursors) for c in self._connections.values())

    # -- distributed tracing (repro.obs.disttrace) ---------------------------

    def _request_trace(self, header) -> Optional[TraceContext]:
        """The trace context this request runs under, or None.

        A wire ``trace`` field (any client, any hop) wins: the request runs
        under a child of the carried context, sampled or not.  Without one,
        the head sampler may mint a sampled root (``trace_sample`` > 0);
        otherwise tracing stays entirely off-path."""
        wire = header.get("trace")
        if wire is not None:
            parent = TraceContext.from_wire(wire)
            if parent is not None:
                return parent.child()
        if self.trace_sampler.decide():
            return TraceContext.mint(True)
        return None

    def _event(self, name: str, category: str, **args) -> None:
        """One instant event in the optional :class:`EventTracer`."""
        if self.tracer is not None:
            self.tracer.instant(name, category, **args)

    def _current_trace(self) -> Optional[TraceContext]:
        return getattr(self._trace_local, "ctx", None)

    def _collect(self, spans: Iterable[Dict[str, object]]) -> TraceCollector:
        """``spans`` plus whatever sibling processes drained into
        ``span_dir``; the collector dedupes ids, first writer wins."""
        collector = TraceCollector()
        collector.add_spans(spans)
        if self.span_dir:
            try:
                collector.load_dir(self.span_dir)
            except OSError:
                pass
        return collector

    def _trace_lookup(self, trace_id: str) -> Optional[Dict[str, object]]:
        """Assemble one trace id from this process's spans plus the shared
        span directory — the payload behind ``/debug/trace/<id>`` on the
        telemetry endpoint."""
        collector = self._collect(self.spans.snapshot())
        if not collector.spans(trace_id):
            return None
        return collector.assemble(trace_id)

    def _op_trace(
        self, header, gathered: Iterable[Dict[str, object]] = ()
    ) -> Dict[str, object]:
        """The TRACE op: this process's spans for one trace id, then
        ``gathered`` (a router's workers' answers), then the shared span
        directory — that is how the shell's ``@trace <id>`` sees the whole
        cluster."""
        trace_id = str(header.get("id", ""))
        spans: List[Dict[str, object]] = self.spans.spans_for(trace_id)
        spans.extend(span for span in gathered if isinstance(span, dict))
        return {
            "ok": True,
            "id": trace_id,
            "process": self.process_name,
            "spans": self._collect(spans).spans(trace_id),
        }

    # -- introspection -------------------------------------------------------

    def _rates(self) -> Dict[str, float]:
        """Request/answer throughput over the trailing :data:`RATE_WINDOW`
        seconds (clamped to actual uptime, so a young server's rates are
        not diluted by a window it has not lived through yet)."""
        now = time.perf_counter()
        horizon = now - RATE_WINDOW
        recent = [item for item in self._recent if item[0] >= horizon]
        elapsed = max(1e-9, min(RATE_WINDOW, now - self._started_at))
        return {
            "window_seconds": RATE_WINDOW,
            "requests": len(recent),
            "requests_per_second": len(recent) / elapsed,
            "answers_per_second": sum(a for _, a in recent) / elapsed,
        }

    def _latency(self) -> Dict[str, Dict[str, object]]:
        """Per-op service-time percentiles from the request histogram."""
        out: Dict[str, Dict[str, object]] = {}
        for labels, snap in self._m_latency.collect().items():
            if snap["count"]:
                out[labels[0]] = {
                    "count": snap["count"],
                    "p50": snap["p50"],
                    "p90": snap["p90"],
                    "p99": snap["p99"],
                }
        return out

    def stats(self) -> Dict[str, object]:
        """The STATS stanza every front end shares: connection/cursor/
        request counters, trailing request rates and latency percentiles
        (what the shell's ``@top`` renders), trace-buffer health and the
        metrics registry.  Subclasses add their own sections."""
        with self._state_lock:
            connections = {
                "total": self._connections_total,
                "active": len(self._connections),
            }
            cursors = {
                "opened": self._cursors_opened,
                "closed": self._cursors_closed,
                "open": sum(
                    len(c.cursors) for c in self._connections.values()
                ),
            }
            requests_total = self._requests_total
        return {
            "connections": connections,
            "cursors": cursors,
            "requests": requests_total,
            "role": self.role,
            "rates": self._rates(),
            "latency": self._latency(),
            "trace": {
                "process": self.process_name,
                "sample_rate": self.trace_sampler.rate,
                "spans_recorded": self.spans.recorded,
                "spans_dropped": self.spans.dropped,
            },
            "metrics": self.metrics.collect(),
        }
