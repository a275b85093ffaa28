"""The wire protocol: length-prefixed frames carrying a JSON header and an
optional binary tuple batch.

CORAL ran over the EXODUS storage manager's client-server architecture
(paper Section 2); this module makes that hop real for *queries* rather than
pages.  The central design choice mirrors the paper's uniform get-next-tuple
interface (Sections 3, 5.6): a query opens a **server-side cursor**, and the
client pulls answers in batches with ``FETCH`` — a client that stops
fetching stops server work.

Frame layout (all integers big-endian)::

    +-----------+------------+----------------------+---------------+
    | u32 total | u32 hdrlen | header: JSON (UTF-8) | body: bytes   |
    +-----------+------------+----------------------+---------------+

``total`` counts everything after itself (4 + hdrlen + len(body)).  The
header is a JSON object; requests carry ``{"op": ...}``, responses carry
``{"ok": true/false}``.  The body, when present, is a tuple batch in the
*storage* codec (:func:`repro.storage.serde.encode_batch`) — the same
versioned, magic-prefixed encoding used for heap records, so the disk
format and the wire format cannot drift apart.

Request ops (client to server)::

    HELLO         version handshake; must be the first frame
    CONSULT       load program text into the shared database; contained
                  queries become cursors
    QUERY         open a cursor for one query string
    FETCH         pull up to `max` answers from a cursor
    CLOSE_CURSOR  abandon a cursor early (Section 5.4.3 on the wire)
    INSERT        add one base fact
    DELETE        remove one base fact
    SUBSCRIBE     register a live query (repro.live): the response carries
                  a subscription id and the initial snapshot as its body
    DELTA         long-poll one subscription's delta queue: the response
                  carries +/- signs in the header and the tuples in the
                  body; kind "resnapshot" replaces the client's folded
                  state after the bounded queue overflowed; kind "none"
                  is an empty poll (timeout), kind "closed" a server-side
                  teardown
    UNSUBSCRIBE   deregister a live query
    STATS         server counters: connections, cursors, requests, metrics
    TRACE         the spans a process recorded under one distributed trace
                  id (header ``id``); a shard router answers with the whole
                  fleet's spans (repro.obs.disttrace; docs/OBSERVABILITY.md)
    REPL_HELLO    enter the replication stream: the sender is a replica,
                  the header carries its last applied changelog sequence
    PROMOTE       turn a read replica into a writable primary (failover)
    WORKER_HELLO  the sender is a shard router (repro.sharding) claiming
                  this server as worker #N of its fleet; the response
                  carries the worker's pid and role so the supervisor can
                  verify it is talking to a live, freshly-booted process
    BYE           clean goodbye; the server closes the connection

After a successful ``REPL_HELLO`` the roles on the socket invert: the
*server* (a primary) pushes ``REPL_SHIP`` frames — one changelog record or
heartbeat each, the body carrying the record payload in the storage batch
codec — and the *client* (a replica) answers each with ``REPL_ACK`` carrying
its applied sequence.  See docs/REPLICATION.md.

Every request header (and ``REPL_SHIP``) may additionally carry an
**optional** ``trace`` field: a W3C-traceparent-style string
(``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``, flag bit 0x01 =
sampled) propagating a distributed trace context across hops — client to
router to workers, primary to replicas (:mod:`repro.obs.disttrace`).  The
field is fully backward compatible: old clients omit it, old servers
ignore it, and a malformed value is treated as absent rather than failing
the request.  The protocol version is unchanged.

Error responses carry ``{"ok": false, "error": <class name>, "message":
...}``; the client re-raises the matching :class:`~repro.errors.CoralError`
subclass, so remote failures look exactly like local ones.
:func:`error_response` builds that header and :func:`error_from_response`
turns it back into the exception — the only two places that know the shape.

The peers that *dial* a server from inside the system (the worker pool, the
router's upstream links, a replica's shipping client) share :func:`dial`
(connect + ``HELLO``) and :func:`roundtrip` (one request, one response, a
refusal re-raised under the upstream's own class); their retry *policies*
stay with them.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, Optional, Tuple as PyTuple

from .. import errors as _errors
from ..errors import CoralError, ProtocolError

#: protocol version spoken by this build; HELLO negotiates equality
PROTOCOL_VERSION = 1

#: refuse frames larger than this (a garbage length prefix must not
#: trigger a gigabyte allocation)
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: every legal request op, in lifecycle order
REQUEST_OPS = (
    "HELLO",
    "CONSULT",
    "QUERY",
    "FETCH",
    "CLOSE_CURSOR",
    "INSERT",
    "DELETE",
    "SUBSCRIBE",
    "DELTA",
    "UNSUBSCRIBE",
    "STATS",
    "TRACE",
    "REPL_HELLO",
    "PROMOTE",
    "WORKER_HELLO",
    "BYE",
)

#: frames exchanged on an established replication stream (server pushes
#: REPL_SHIP, the replica answers REPL_ACK) — not request ops
STREAM_OPS = ("REPL_SHIP", "REPL_ACK")


class FrameTimeout(Exception):
    """The socket timed out before *any* byte of the next frame arrived.

    Deliberately not a :class:`~repro.errors.CoralError`: this is the idle
    case, not an error — the server's connection loop uses it to poll its
    idle-reaping deadline, and ship loops use it to pace heartbeats.  A
    timeout *mid*-frame (some bytes arrived, then silence) still raises
    :class:`ProtocolError`: that peer is wedged, not idle.
    """


class PeerLost(ProtocolError):
    """A :func:`dial` or :func:`roundtrip` failed at the socket layer — the
    peer is unreachable, vanished, stalled, or spoke garbage — as opposed
    to answering with a refusal.  Callers that retry or fail over catch
    this; everyone else sees an ordinary :class:`ProtocolError`."""


#: error name -> exception class, so a refusal re-raises as its original
#: type on the far side of the wire
_ERROR_TYPES: Dict[str, type] = {
    name: value
    for name, value in vars(_errors).items()
    if isinstance(value, type) and issubclass(value, CoralError)
}


def error_response(exc: BaseException) -> Dict[str, object]:
    """The ``ok: false`` response header reporting ``exc``."""
    return {"ok": False, "error": type(exc).__name__, "message": str(exc)}


def error_from_response(response: Dict[str, object]) -> CoralError:
    """The exception an ``ok: false`` response stands for, under its
    original class (unknown names fall back to :class:`CoralError`), with
    the sender's message intact."""
    name = str(response.get("error", "CoralError"))
    message = str(response.get("message", "remote error"))
    return _ERROR_TYPES.get(name, CoralError)(message)


def encode_frame(header: Dict[str, object], body: bytes = b"") -> bytes:
    """One wire frame from a JSON-able header and an optional binary body."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    total = 4 + len(header_bytes) + len(body)
    if total > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {total} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return b"".join(
        (struct.pack(">II", total, len(header_bytes)), header_bytes, body)
    )


def decode_frame(payload: bytes) -> PyTuple[Dict[str, object], bytes]:
    """Split a frame payload (everything after the total-length prefix)
    back into its header dict and body bytes."""
    if len(payload) < 4:
        raise ProtocolError("truncated frame: missing header length")
    (header_len,) = struct.unpack_from(">I", payload, 0)
    if 4 + header_len > len(payload):
        raise ProtocolError(
            f"truncated frame: header claims {header_len} bytes, "
            f"{len(payload) - 4} available"
        )
    try:
        header = json.loads(payload[4 : 4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(header).__name__}"
        )
    return header, payload[4 + header_len :]


def _recv_exact(
    sock: socket.socket, count: int, idle_ok: bool = False
) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or None on clean EOF at a frame
    boundary.  EOF mid-frame raises :class:`ProtocolError`.

    With ``idle_ok`` a socket timeout before the *first* byte raises
    :class:`FrameTimeout` (nothing was consumed; the caller may retry);
    any timeout after bytes arrived — or without ``idle_ok`` — raises
    :class:`ProtocolError`, because half a frame followed by silence is a
    wedged peer, not an idle one.
    """
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as exc:
            if idle_ok and remaining == count:
                raise FrameTimeout() from exc
            raise ProtocolError(
                f"connection timed out mid-frame ({count - remaining} of "
                f"{count} bytes read)"
            ) from exc
        except OSError as exc:
            raise ProtocolError(f"connection lost mid-frame: {exc}") from exc
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket,
) -> Optional[PyTuple[Dict[str, object], bytes]]:
    """Read one frame; None on clean EOF before any bytes of a frame.

    On a socket with a timeout configured, raises :class:`FrameTimeout`
    when the timeout expires with *no* bytes of a frame read — the idle
    case — and :class:`ProtocolError` when it expires mid-frame.
    """
    prefix = _recv_exact(sock, 4, idle_ok=True)
    if prefix is None:
        return None
    (total,) = struct.unpack(">I", prefix)
    if total < 4 or total > MAX_FRAME_BYTES:
        raise ProtocolError(f"implausible frame length {total}")
    payload = _recv_exact(sock, total)
    if payload is None:
        raise ProtocolError("connection closed between length prefix and frame")
    return decode_frame(payload)


def write_frame(
    sock: socket.socket, header: Dict[str, object], body: bytes = b""
) -> None:
    try:
        sock.sendall(encode_frame(header, body))
    except OSError as exc:
        raise ProtocolError(f"connection lost while sending: {exc}") from exc


def roundtrip(
    sock: socket.socket, header: Dict[str, object], body: bytes = b""
) -> PyTuple[Dict[str, object], bytes]:
    """One request/response on an established connection.

    A transport failure (send error, timeout, EOF, garbage) raises
    :class:`PeerLost`; an ``ok: false`` answer raises the refusal under the
    upstream's own class (:func:`error_from_response`)."""
    try:
        write_frame(sock, header, body)
        frame = read_frame(sock)
    except FrameTimeout:
        raise PeerLost("timed out waiting for the peer's response") from None
    except ProtocolError as exc:
        raise PeerLost(str(exc)) from exc
    if frame is None:
        raise PeerLost("peer closed the connection mid-conversation")
    if not frame[0].get("ok"):
        raise error_from_response(frame[0])
    return frame


def dial(
    address: PyTuple[str, int], timeout: Optional[float], client: str
) -> socket.socket:
    """Connect to a server and complete the ``HELLO`` handshake as
    ``client``; the returned socket keeps ``timeout`` per operation."""
    try:
        sock = socket.create_connection(address, timeout=timeout)
    except OSError as exc:
        raise PeerLost(
            f"cannot connect to {address[0]}:{address[1]}: {exc}"
        ) from exc
    try:
        roundtrip(
            sock,
            {"op": "HELLO", "version": PROTOCOL_VERSION, "client": client},
        )
    except BaseException:
        sock.close()
        raise
    return sock
