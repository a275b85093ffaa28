"""The transport contract (ISSUE 12): what every front end built on
:class:`repro.server.transport.FrameServer` must do, checked once against
each of them — a :class:`CoralServer`, and a :class:`ShardRouter` over a
static two-worker pool.

Handshake rules, the typed-refusal guarantee (no request, however
malformed or however it blows up inside a handler, may cost the client its
connection), socket hygiene (idle reaping, mid-frame stalls) and graceful
shutdown (drain, shutdown) live here; what a front end *serves* is tested
in test_server_protocol.py / test_sharding.py.
"""

import socket
import threading
import time

import pytest

from repro import Session
from repro.client import RemoteSession
from repro.errors import CoralError, ParseError, ProtocolError
from repro.server import CoralServer, PROTOCOL_VERSION
from repro.server.protocol import read_frame, write_frame
from repro.sharding import ShardRouter, WorkerPool

EDGES = 6

DEEP_TERM = "edge(" + "f(" * 3000 + "1" + ")" * 3000 + ", Y)"

BOOM_MODULE = """
    module blast.
    export blast(f).
    blast(X) :- boom(X).
    end_module.
"""


def _boom(args, env, trail):
    raise RuntimeError("kaboom")
    yield  # pragma: no cover - makes this a generator, like every builtin


def _session():
    session = Session()
    session.ctx.builtins.register_function("boom", 1, _boom)
    return session


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class _Front:
    """One front end under test plus whatever has to be torn down with it."""

    def __init__(self, kind, **kwargs):
        self.sessions = []
        self.backends = []
        self.pool = None
        if kind == "server":
            self.sessions.append(_session())
            self.server = CoralServer(self.sessions[0], port=0, **kwargs)
        else:
            self.sessions = [_session(), _session()]
            self.backends = [
                CoralServer(session, port=0).start()
                for session in self.sessions
            ]
            self.pool = WorkerPool(
                2,
                endpoints=[backend.address for backend in self.backends],
                heartbeat=0.1,
            ).start()
            self.server = ShardRouter(self.pool, port=0, **kwargs)
        self.server.start()
        self.prefix = self.server.metric_prefix
        with RemoteSession(*self.address) as db:
            for i in range(EDGES):
                db.insert("edge", i, i + 1)
            db.consult_string(BOOM_MODULE)

    @property
    def address(self):
        return self.server.address

    def errors(self, kind):
        return self.server.metrics.counter(
            f"{self.prefix}.errors", "", ("kind",)
        ).value(kind)

    def active(self):
        return self.server.stats()["connections"]["active"]

    def raw(self, hello=True):
        sock = socket.create_connection(self.address, timeout=5.0)
        if hello:
            write_frame(sock, {"op": "HELLO", "version": PROTOCOL_VERSION})
            header, _ = read_frame(sock)
            assert header["ok"], header
        return sock

    def close(self):
        self.server.shutdown()
        if self.pool is not None:
            self.pool.stop()
        for backend in self.backends:
            backend.shutdown()
        for session in self.sessions:
            session.close()


@pytest.fixture(params=["server", "router"])
def make_front(request):
    made = []

    def make(**kwargs):
        front = _Front(request.param, **kwargs)
        made.append(front)
        return front

    yield make
    for front in made:
        front.close()


@pytest.fixture
def front(make_front):
    return make_front()


def _ask(sock, header):
    write_frame(sock, header)
    frame = read_frame(sock)
    assert frame is not None, f"{header.get('op')}: the connection was dropped"
    return frame[0]


class TestHandshake:
    def test_request_before_hello_refused(self, front):
        with front.raw(hello=False) as sock:
            header = _ask(sock, {"op": "QUERY", "query": "edge(X, Y)"})
            assert header["ok"] is False
            assert header["error"] == "ProtocolError"
            assert "HELLO" in header["message"]
            # the server hangs up after refusing the handshake
            assert read_frame(sock) is None

    def test_version_mismatch_refused(self, front):
        with front.raw(hello=False) as sock:
            header = _ask(
                sock, {"op": "HELLO", "version": PROTOCOL_VERSION + 1}
            )
            assert header["ok"] is False
            assert "version mismatch" in header["message"]
            assert read_frame(sock) is None

    def test_hello_ok(self, front):
        with front.raw(hello=False) as sock:
            header = _ask(sock, {"op": "HELLO", "version": PROTOCOL_VERSION})
            assert header["ok"] is True
            assert header["version"] == PROTOCOL_VERSION
            assert header["server"].startswith("repro.")

    def test_bye_is_acknowledged_then_the_server_hangs_up(self, front):
        with front.raw() as sock:
            # a first batch smaller than the answer set keeps the cursor open
            cursor = _ask(
                sock, {"op": "QUERY", "query": "edge(X, Y)", "max": 2}
            )
            assert cursor["ok"] is True and not cursor["done"]
            assert front.server.open_cursors() == 1
            header = _ask(sock, {"op": "BYE"})
            assert header == {"ok": True, "bye": True}
            # whatever the connection held is released before the answer
            assert front.server.open_cursors() == 0
            assert read_frame(sock) is None
        assert _wait_until(lambda: front.active() == 0)


class TestTypedRefusals:
    def test_unknown_op_is_an_error_but_keeps_the_connection(self, front):
        with front.raw() as sock:
            header = _ask(sock, {"op": "FROBNICATE"})
            assert header["ok"] is False
            assert header["error"] == "ProtocolError"
            assert _ask(sock, {"op": "STATS"})["ok"] is True

    @pytest.mark.parametrize(
        "request_header",
        [
            {"op": "FETCH", "cursor": "seven"},
            {"op": "FETCH", "cursor": [1]},
            {"op": "CLOSE_CURSOR", "cursor": {"a": 1}},
        ],
    )
    def test_malformed_field_is_a_protocol_error(self, front, request_header):
        with front.raw() as sock:
            header = _ask(sock, request_header)
            assert header["ok"] is False
            assert header["error"] == "ProtocolError"
            assert "malformed" in header["message"]
            assert _ask(sock, {"op": "STATS"})["ok"] is True
        assert front.errors("ProtocolError") == 1

    def test_deeply_nested_term_is_a_parse_error(self, front):
        # fails at the parent commit: RecursionError escaped parse_query,
        # killed the handler thread, and the client saw a dropped socket
        with RemoteSession(*front.address) as db:
            with pytest.raises(ParseError, match="nested too deeply"):
                db.query(DEEP_TERM)
            with pytest.raises(ParseError, match="nested too deeply"):
                db.consult_string(DEEP_TERM + "?")
            # the same connection still answers
            assert len(db.query("edge(X, Y)").all()) == EDGES
        assert front.errors("ParseError") == 2

    def test_in_process_query_gets_the_same_parse_error(self):
        session = Session()
        with pytest.raises(ParseError, match="nested too deeply"):
            session.query(DEEP_TERM)
        with pytest.raises(ParseError, match="nested too deeply"):
            session.consult_string(DEEP_TERM + ".")

    def test_arbitrary_handler_exception_is_answered_not_dropped(self, front):
        with RemoteSession(*front.address) as db:
            with pytest.raises(CoralError, match="RuntimeError: kaboom"):
                db.query("blast(X)").all()
            assert len(db.query("edge(X, Y)").all()) == EDGES
            assert db.stats()["cursors"]["open"] == 0
        # counted where it was raised: the process that ran the builtin
        # (behind a router that is a worker, whose refusal the router relays)
        counted = [front.server] + front.backends
        assert sum(
            s.metrics.counter(
                f"{s.metric_prefix}.errors", "", ("kind",)
            ).value("unhandled")
            for s in counted
        ) == 1


class TestSocketHygiene:
    def test_idle_connection_is_reaped(self, make_front):
        front = make_front(io_timeout=0.05, idle_timeout=0.15)
        sock = front.raw()
        assert front.active() == 1
        # say nothing: the server reaps us at the idle deadline
        assert _wait_until(lambda: front.active() == 0)
        assert front.errors("idle_reaped") == 1
        sock.close()

    def test_stall_mid_frame_is_dropped_not_waited_forever(self, make_front):
        front = make_front(io_timeout=0.05, idle_timeout=5.0)
        sock = front.raw()
        sock.sendall(b"\x00\x00")  # half a length prefix, then silence
        assert _wait_until(lambda: front.active() == 0)
        assert front.errors("read") == 1
        sock.close()

    def test_activity_resets_the_idle_deadline(self, make_front):
        front = make_front(io_timeout=0.05, idle_timeout=0.3)
        with RemoteSession(*front.address) as db:
            for _ in range(5):
                time.sleep(0.15)  # beyond io_timeout, inside idle budget
                assert len(db.query("edge(X, Y)").tuples()) == EDGES


class TestGracefulShutdown:
    def test_drain_refuses_new_work_but_serves_open_cursors(self, front):
        with RemoteSession(*front.address, batch_size=2) as db:
            cursor = db.query("edge(X, Y)")
            assert cursor.get_next() is not None
            assert front.server.drain(timeout=0.1) is False  # cursor open
            with pytest.raises(ProtocolError, match="draining"):
                db.query("edge(X, Y)")
            with pytest.raises(ProtocolError, match="draining"):
                db.insert("edge", 9, 9)
            # the open cursor still streams to completion
            assert len(cursor.all()) == EDGES
            assert front.server.drain(timeout=1.0) is True

    def test_draining_server_refuses_new_connections(self, front):
        front.server.drain(timeout=0.05)
        with pytest.raises(ProtocolError):
            RemoteSession(*front.address, timeout=1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CoralServer(Session(), port=0),
            lambda: ShardRouter(
                WorkerPool(1, endpoints=[("127.0.0.1", 9)]), port=0
            ),
        ],
        ids=["server", "router"],
    )
    def test_shutdown_after_an_interrupted_start_does_not_hang(self, build):
        # at the parent commit a SIGINT landing between "serving" and the
        # accept loop left shutdown() waiting for a loop that never ran:
        # `python -m repro.server` hung on an early Ctrl-C
        server = build()
        begin = server._begin

        def interrupted_begin():
            begin()
            raise KeyboardInterrupt

        server._begin = interrupted_begin
        with pytest.raises(KeyboardInterrupt):
            server.serve_forever()
        closer = threading.Thread(target=server.shutdown, daemon=True)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive(), "shutdown() hung"

    def test_shutdown_severs_live_sockets(self, front):
        sock = front.raw()
        cursor = _ask(sock, {"op": "QUERY", "query": "edge(X, Y)", "max": 2})
        assert cursor["ok"] is True and front.server.open_cursors() == 1
        front.server.shutdown()
        assert front.server.open_cursors() == 0
        # the kill looks real to the client: EOF or a reset, never a hang
        sock.settimeout(5.0)
        try:
            assert read_frame(sock) is None
        except ProtocolError:
            pass
        sock.close()
