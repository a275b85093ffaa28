"""Unit tests for the wire protocol: frame codec, the shared tuple-batch
codec (disk format == wire format), handshake rules, and per-message
behaviour against a live server.  (The handshake rules moved to
test_transport.py, where they run against every front end.)"""

import socket
import struct

import pytest

from repro import Session
from repro.client import RemoteSession
from repro.errors import ParseError, ProtocolError, StorageError
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
