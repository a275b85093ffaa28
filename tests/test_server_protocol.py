"""Unit tests for the wire protocol: frame codec, the shared tuple-batch
codec (disk format == wire format), handshake rules, and per-message
behaviour against a live server.  (The handshake rules moved to
test_transport.py, where they run against every front end.)"""

import gc
import socket
import struct
import time

import pytest

from repro import Session
from repro.api.session import Answer
from repro.client import RemoteSession, remote
from repro.errors import (
    ParseError,
    ProtocolError,
    ResourceLimitError,
    StorageError,
)
from repro.eval.limits import ResourceLimits
from repro.language import parse_query
from repro.server import (
    CoralServer,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    query_variable_names,
    read_frame,
    write_frame,
)
from repro.server.protocol import error_from_response
from repro.sharding import ShardRouter, WorkerPool
from repro.storage.serde import (
    BATCH_MAGIC,
    CODEC_VERSION,
    decode_batch,
    encode_batch,
)
from repro.terms import Atom, Double, Int, Str

TC_PROGRAM = """
    edge(1, 2). edge(2, 3). edge(3, 4).

    module tc.
    export path(bf, ff).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    end_module.
"""


@pytest.fixture
def server():
    session = Session()
    session.consult_string(TC_PROGRAM)
    with CoralServer(session, port=0) as srv:
        yield srv


class TestFrameCodec:
    def test_roundtrip(self):
        header = {"op": "QUERY", "query": "path(1, X)", "n": 3}
        body = b"\x00\x01binary"
        frame = encode_frame(header, body)
        (total,) = struct.unpack(">I", frame[:4])
        assert total == len(frame) - 4
        decoded_header, decoded_body = decode_frame(frame[4:])
        assert decoded_header == header
        assert decoded_body == body

    def test_empty_body(self):
        header, body = decode_frame(encode_frame({"op": "BYE"})[4:])
        assert header == {"op": "BYE"}
        assert body == b""

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame(b"\x00")

    def test_header_length_beyond_payload_rejected(self):
        payload = struct.pack(">I", 999) + b"{}"
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame(payload)

    def test_non_json_header_rejected(self):
        garbage = b"\xff\xfe\x00!"
        payload = struct.pack(">I", len(garbage)) + garbage
        with pytest.raises(ProtocolError, match="unparseable"):
            decode_frame(payload)

    def test_non_object_header_rejected(self):
        body = b"[1, 2]"
        payload = struct.pack(">I", len(body)) + body
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(payload)


class TestBatchCodec:
    def test_roundtrip_mixed_types(self):
        rows = [
            [Int(1), Atom("msn"), Str("o'hare"), Double(2.5)],
            [Int(-(2**70))],
            [],
        ]
        decoded = decode_batch(encode_batch(rows))
        assert decoded == [list(row) for row in rows]

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_magic_prefix(self):
        assert encode_batch([]).startswith(BATCH_MAGIC)

    def test_bad_magic_rejected(self):
        blob = b"XX" + encode_batch([])[2:]
        with pytest.raises(StorageError, match="bad magic"):
            decode_batch(blob)

    def test_version_mismatch_rejected(self):
        blob = bytearray(encode_batch([[Int(1)]]))
        blob[2] = CODEC_VERSION + 1
        with pytest.raises(StorageError, match="version mismatch"):
            decode_batch(bytes(blob))

    def test_truncated_batch_rejected(self):
        blob = encode_batch([[Int(1), Int(2)]])
        with pytest.raises(StorageError, match="truncated"):
            decode_batch(blob[:-3])

    def test_short_blob_rejected(self):
        with pytest.raises(StorageError, match="truncated"):
            decode_batch(b"CB")


class TestQueryVariableNames:
    def test_first_occurrence_order_and_dedup(self):
        literal = parse_query("p(Y, X, Y, _, 3)").literal
        assert query_variable_names(literal) == ["Y", "X"]

    def test_ground_query_has_no_vars(self):
        literal = parse_query("p(1, a)").literal
        assert query_variable_names(literal) == []


def _raw_conn(server):
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


class TestMessages:
    def test_query_fetch_close_lifecycle(self, server):
        with RemoteSession(*server.address, batch_size=2) as db:
            result = db.query("path(1, X)")
            assert sorted(a["X"] for a in result) == [2, 3, 4]
            # exhausted cursor was freed server-side
            assert db.stats()["cursors"]["open"] == 0

    def test_fetch_unknown_cursor(self, server):
        with _raw_conn(server) as sock:
            write_frame(sock, {"op": "HELLO", "version": PROTOCOL_VERSION})
            read_frame(sock)
            write_frame(sock, {"op": "FETCH", "cursor": 424242})
            header, _ = read_frame(sock)
            assert header["ok"] is False
            assert "unknown cursor" in header["message"]

    def test_parse_error_surfaces_as_parse_error(self, server):
        with RemoteSession(*server.address) as db:
            with pytest.raises(ParseError):
                db.query("path(1, ")

    def test_insert_delete_changed_flags(self, server):
        with RemoteSession(*server.address) as db:
            assert db.insert("scratch", 1, "a") is True
            assert db.insert("scratch", 1, "a") is False  # duplicate
            assert db.delete("scratch", 1, "a") is True
            assert db.delete("scratch", 1, "a") is False

    def test_consult_string_returns_cursors_for_queries(self, server):
        with RemoteSession(*server.address) as db:
            results = db.consult_string("color(red). color(blue). color(C)?")
            assert len(results) == 1
            assert sorted(results[0].tuples()) == [("blue",), ("red",)]

    def test_remote_consult_command_refused(self, server):
        with RemoteSession(*server.address) as db:
            with pytest.raises(ProtocolError, match="server-side files"):
                db.consult_string('@consult "/etc/passwd".')

    def test_query_values_none_is_free_variable(self, server):
        with RemoteSession(*server.address) as db:
            assert sorted(db.query_values("edge", 1, None).tuples()) == [(1, 2)]
            assert sorted(db.query_values("edge", None, None).tuples()) == [
                (1, 2), (2, 3), (3, 4),
            ]

    def test_query_values_sends_negative_numbers_and_escaped_strings(
        self, server
    ):
        """A value travels as its printed term; ``-3`` is the constant, not
        ``0 - 3``, and quotes and backslashes survive the round trip."""
        awkward = 'a\\b "c"\n'
        with RemoteSession(*server.address) as db:
            assert db.insert("n", -3)
            assert db.insert("n", -2.5)
            assert db.insert("s", awkward)
            assert db.query_values("n", -3).tuples() == [(-3,)]
            assert db.query_values("n", -2.5).tuples() == [(-2.5,)]
            assert db.query_values("s", awkward).tuples() == [(awkward,)]

    def test_bye_then_session_close_is_clean(self, server):
        db = RemoteSession(*server.address)
        db.query("edge(X, Y)").all()
        db.close()
        db.close()  # idempotent
        with pytest.raises(ProtocolError, match="closed"):
            db.query("edge(X, Y)")

    def test_stats_shape(self, server):
        with RemoteSession(*server.address) as db:
            stats = db.stats()
            assert stats["connections"]["active"] >= 1
            assert {"opened", "closed", "open"} <= set(stats["cursors"])
            assert "inferences" in stats["eval"]
            assert "server.requests" in stats["metrics"]


def _hello(sock):
    write_frame(sock, {"op": "HELLO", "version": PROTOCOL_VERSION})
    assert read_frame(sock)[0]["ok"]


def _ask(sock, header):
    write_frame(sock, header)
    return read_frame(sock)[0]


class TestVersionAndLimits:
    def test_a_version_1_hello_is_refused_naming_both_versions(self, server):
        assert PROTOCOL_VERSION == 2
        with _raw_conn(server) as sock:
            header = _ask(sock, {"op": "HELLO", "version": 1})
        assert header["ok"] is False
        error = error_from_response(header)
        assert isinstance(error, ProtocolError)
        assert "client speaks 1" in str(error)
        assert "server speaks 2" in str(error)

    @pytest.mark.parametrize("op", ["QUERY", "FETCH"])
    def test_max_below_one_is_refused(self, server, op):
        with _raw_conn(server) as sock:
            _hello(sock)
            opened = _ask(
                sock, {"op": "QUERY", "query": "path(1, X)", "max": 1}
            )
            assert opened["count"] == 1 and not opened["done"]
            target = (
                {"query": "path(1, X)"} if op == "QUERY"
                else {"cursor": opened["cursor"]}
            )
            header = _ask(sock, dict(target, op=op, max=0))
            assert header["ok"] is False
            assert header["error"] == "ProtocolError"
            assert header["message"] == f"{op} max must be >= 1, got 0"
            # the refused QUERY opened nothing; the open cursor survives
            assert server.open_cursors() == 1


@pytest.fixture
def frames(monkeypatch):
    """The ops of every frame a RemoteSession writes: one per round trip."""
    written = []

    def counting(sock, header, body=b""):
        written.append(header.get("op"))
        return write_frame(sock, header, body)

    monkeypatch.setattr(remote, "write_frame", counting)
    return written


class TestRoundTrips:
    def test_an_answer_set_smaller_than_a_batch_is_one_round_trip(
        self, server, frames
    ):
        with RemoteSession(*server.address, batch_size=4) as db:
            del frames[:]
            result = db.query("path(1, X)")
            assert sorted(a["X"] for a in result) == [2, 3, 4]
            result.close()  # arrived done: the server closed it already
            assert frames == ["QUERY"]
            assert server.open_cursors() == 0

    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_n_answers_at_batch_b_take_ceil_n_plus_1_over_b(
        self, server, frames, batch
    ):
        # a full batch cannot tell the last answer from one more, so n
        # answers at batch b end with the batch that finds none past them
        n = 3
        with RemoteSession(*server.address, batch_size=batch) as db:
            del frames[:]
            assert len(db.query("path(1, X)").all()) == n
            assert len(frames) == -(-(n + 1) // batch)
            assert frames[0] == "QUERY" and set(frames[1:]) <= {"FETCH"}

    def test_a_routed_single_owner_query_is_one_round_trip_per_hop(
        self, frames
    ):
        sessions = [Session(), Session()]
        workers = [CoralServer(s, port=0).start() for s in sessions]
        pool = WorkerPool(
            2, endpoints=[w.address for w in workers], heartbeat=0.1
        ).start()
        router = ShardRouter(pool, port=0, shard_map={"edge": 0}).start()
        try:
            with RemoteSession(*router.address, batch_size=8) as db:
                for i in range(5):
                    db.insert("edge", i, i + 1)
                ops = [
                    w.metrics.counter("server.requests", "", ("op",))
                    for w in workers
                ]

                def worker_reads():
                    return [
                        (c.value("QUERY"), c.value("FETCH")) for c in ops
                    ]

                before = worker_reads()
                del frames[:]
                assert len(db.query("edge(X, Y)").all()) == 5
                assert frames == ["QUERY"]
                after = worker_reads()
                assert after[0] == (before[0][0] + 1, before[0][1])
                assert after[1] == before[1]
                assert router.open_cursors() == 0
                assert all(w.open_cursors() == 0 for w in workers)
        finally:
            router.shutdown()
            pool.stop()
            for worker in workers:
                worker.shutdown()


class TestServerCursorMemory:
    def test_a_streamed_cursor_holds_at_most_one_batch(self):
        """A server cursor ships each answer once and keeps none: after
        16 batches of 64 the server process holds at most one batch of
        answers, not every answer it has shipped."""
        session = Session()
        session.consult_string("".join(f"n({i}).\n" for i in range(2_000)))
        with CoralServer(session, port=0) as srv, _raw_conn(srv) as sock:
            _hello(sock)
            opened = _ask(sock, {"op": "QUERY", "query": "n(X)", "max": 64})
            for _ in range(15):
                header = _ask(
                    sock, {"op": "FETCH", "cursor": opened["cursor"], "max": 64}
                )
                assert header["count"] == 64 and not header["done"]
            gc.collect()
            held = sum(isinstance(o, Answer) for o in gc.get_objects())
            assert held <= 64
            assert srv.open_cursors() == 1


class TestRemoteQueryResult:
    def test_close_after_a_done_first_batch_writes_no_frame(
        self, server, frames
    ):
        with RemoteSession(*server.address) as db:
            result = db.query("path(1, X)")
            del frames[:]
            result.close()
            result.close()
            assert frames == []
            assert len(result.all()) == 3  # fetched answers stay readable

    def test_close_of_an_open_cursor_frees_it(self, server, frames):
        with RemoteSession(*server.address, batch_size=1) as db:
            result = db.query("path(1, X)")
            assert server.open_cursors() == 1
            del frames[:]
            result.close()
            assert frames == ["CLOSE_CURSOR"]
            assert server.open_cursors() == 0

    def test_draining_a_batch_is_linear(self):
        """get_next takes answers off the front of the received batch; a
        list's pop(0) made that O(n) each, O(n^2) per batch."""

        def drain_seconds(n):
            body = encode_batch([[]] * n)
            best = float("inf")
            for _ in range(3):
                result = remote.RemoteQueryResult(
                    None,
                    remote._Link(None, 0, 1, "test"),
                    {"cursor": None, "vars": [], "arity": 0, "done": True},
                    n,
                    body=body,
                )
                started = time.perf_counter()
                while result.get_next() is not None:
                    pass
                best = min(best, time.perf_counter() - started)
            return best

        # linear: about 4x for 4x the answers; pop(0) measured ~15x
        assert drain_seconds(40_000) < 8 * drain_seconds(10_000)


class TestAnswerAccounting:
    def test_inline_answers_are_counted_and_rated(self, server):
        sent = server.metrics.counter("server.answers.sent", "")
        before = sent.value()
        with RemoteSession(*server.address) as db:
            for _ in range(5):
                assert len(db.query("path(1, X)").all()) == 3
            stats = db.stats()
        assert sent.value() - before == 5 * 3
        assert stats["rates"]["answers_per_second"] > 0


class TestFirstBatchErrors:
    def test_a_limit_tripped_by_the_first_batch_raises_from_query(self):
        session = Session()
        session.consult_string(TC_PROGRAM)
        for i in range(4, 60):
            session.insert("edge", i, i + 1)
        # path(1, Y) on the 60-chain derives ~118 facts on its first pull
        limits = ResourceLimits(max_tuples=100)
        with CoralServer(session, port=0, limits=limits) as srv:
            with RemoteSession(*srv.address) as db:
                with pytest.raises(ResourceLimitError):
                    db.query("path(1, Y)")
                assert db.stats()["cursors"]["open"] == 0
                assert len(db.query("path(55, Y)").all()) == 5
