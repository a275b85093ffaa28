"""The replica's shipping client: dial the primary, stream the changelog,
apply, acknowledge — and keep doing it across failures.

A read replica runs an ordinary :class:`~repro.server.CoralServer` (role
``"replica"``: writes refused) plus one :class:`ReplicationClient` thread.
The thread connects to the primary as a protocol client (the shared
:func:`repro.server.protocol.dial`, which performs the normal ``HELLO``
handshake), then sends ``REPL_HELLO`` carrying the replica's last applied
sequence (a refusal arrives under the primary's own error class) — after
which the *roles on the socket invert*: the primary pushes ``REPL_SHIP``
frames (one changelog record, or a heartbeat, each) and this thread answers
each with ``REPL_ACK``.

Applying is sequence-gated and crash-safe: each record is applied to the
session first and only then appended to the replica's *own* changelog (with
the shipped sequence), so the changelog never claims a record the session
does not have — a failed apply leaves the sequence untouched and the next
``REPL_HELLO`` re-requests exactly the record that failed.  A duplicate is
acknowledged and dropped; a gap forces a reconnect, which self-heals because
the new ``REPL_HELLO`` names the exact sequence the replica is missing.

Failures (a dead primary, a torn frame, a corrupt record) never kill the
thread: it disconnects, waits an exponentially backed-off interval with
jitter, and redials, forever, until :meth:`stop` — a replica whose primary
is down keeps serving reads, merely reporting growing lag and a degraded
``/healthz``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Optional, Tuple as PyTuple

from ..errors import CoralError, ProtocolError, StorageError
from ..faults import SimulatedCrash
from ..server.protocol import (
    FrameTimeout,
    dial,
    read_frame,
    roundtrip,
    write_frame,
)
from .changelog import record_crc


#: seconds a replica waits for its primary to accept one connection attempt
CONNECT_TIMEOUT = 5.0


class ReplicationClient:
    """The background thread that keeps one replica fed from its primary."""

    def __init__(
        self,
        server,  # the replica CoralServer (avoids a circular import)
        upstream: PyTuple[str, int],
        *,
        name: Optional[str] = None,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        self.server = server
        self.upstream = upstream
        self.name = name or f"replica-{id(server) & 0xFFFF:04x}"
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: monotonic time of the last frame (record or heartbeat) from the
        #: primary; None = never connected.  /healthz degrades on its age.
        self.last_contact: Optional[float] = None
        #: the primary's advertised last sequence (lag_records reference)
        self.upstream_seq = 0
        self.connected = False
        self.reconnects = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ReplicationClient":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"coral-repl-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop streaming and drain: the in-flight record (if any) finishes
        applying before the thread exits — the PROMOTE precondition."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None
        self.connected = False

    def retarget(self, upstream: PyTuple[str, int]) -> None:
        """Point at a new primary (after a promotion elsewhere) and
        restart the stream from the replica's current sequence."""
        self.stop()
        self.upstream = upstream
        self.start()

    # -- health --------------------------------------------------------------

    def stalled_for(self) -> Optional[float]:
        """Seconds since the primary was last heard from; None if the
        stream has never been up."""
        if self.last_contact is None:
            return None
        return max(0.0, time.monotonic() - self.last_contact)

    def lag_records(self) -> int:
        return max(0, self.upstream_seq - self.server.changelog.last_seq)

    # -- the stream ----------------------------------------------------------

    def _run(self) -> None:
        delay = self.backoff
        while not self._stop.is_set():
            try:
                self._stream()
                delay = self.backoff  # clean EOF: primary restarting, redial
            except SimulatedCrash:
                raise  # chaos tests: a simulated crash kills this thread
            except (CoralError, OSError, ValueError, TypeError):
                # CoralError/OSError: the stream died; ValueError/TypeError:
                # the primary shipped a malformed field — either way redial,
                # never let garbage kill the thread
                self.server.repl_metric("errors")
            finally:
                self.connected = False
            if self._stop.is_set():
                return
            self.reconnects += 1
            self.server.repl_metric("reconnects")
            # full jitter on the capped exponential: herds of replicas must
            # not redial a recovering primary in lockstep
            self._stop.wait(random.uniform(0.0, delay))
            delay = min(self.backoff_cap, delay * 2)

    def _stream(self) -> None:
        host, port = self.upstream
        with dial(
            self.upstream, CONNECT_TIMEOUT, f"repro.replica/{self.name}"
        ) as sock:
            header, _ = roundtrip(
                sock,
                {
                    "op": "REPL_HELLO",
                    "last_seq": self.server.changelog.last_seq,
                    "replica": self.name,
                },
            )
            self.upstream_seq = int(header.get("last_seq", 0))
            self.last_contact = time.monotonic()
            self.connected = True
            self.server.repl_metric("connects")
            # the socket timeout now paces heartbeat detection: silence
            # longer than this is a stalled primary, so reconnect
            sock.settimeout(max(self.server.heartbeat * 4, 2.0))
            while not self._stop.is_set():
                try:
                    frame = read_frame(sock)
                except FrameTimeout:
                    raise ProtocolError(
                        f"primary {host}:{port} went silent "
                        f"(no ship or heartbeat)"
                    ) from None
                if frame is None:
                    return  # primary closed cleanly
                header, payload = frame
                self._on_frame(sock, header, payload)

    def _on_frame(self, sock, header, payload: bytes) -> None:
        op = str(header.get("op", ""))
        if op != "REPL_SHIP":
            raise ProtocolError(
                f"expected REPL_SHIP on the replication stream, got {op!r}"
            )
        self.last_contact = time.monotonic()
        seq = int(header.get("seq", 0))
        self.upstream_seq = max(self.upstream_seq, seq)
        if not header.get("heartbeat"):
            kind = int(header.get("kind", 0))
            pred = str(header.get("pred", ""))
            shipped_crc = record_crc(seq, kind, pred.encode("utf-8"), payload)
            if shipped_crc != int(header.get("crc", -1)):
                raise StorageError(
                    f"shipped record #{seq} failed its checksum "
                    f"(truncated or corrupted in flight)"
                )
            self.server.faults.check("repl.apply")
            # the optional trace field carries the originating write's
            # distributed-trace context (repro.obs.disttrace): the apply
            # records a replica-side span under the same trace id
            self.server.apply_replicated(
                seq, kind, pred, payload, trace=header.get("trace")
            )
        write_frame(
            sock, {"op": "REPL_ACK", "seq": self.server.changelog.last_seq}
        )

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return (
            f"<ReplicationClient {self.name} -> "
            f"{self.upstream[0]}:{self.upstream[1]} {state}>"
        )
