"""The concurrent query server: one shared database, N client connections,
demand-driven answer streaming.

The paper's CORAL ran as an EXODUS *client* talking to a page server
(Section 2); our storage stand-in accounts that hop per page fault.  This
module supplies the complementary boundary the ROADMAP's "serve heavy
traffic" north star needs: a TCP server hosting one :class:`~repro.api.Session`
behind many concurrent connections, where each query opens a **server-side
cursor** and answers travel only when the client asks for them — the
get-next-tuple interface (Sections 3, 5.6) lifted onto the wire, batch by
batch.  A client that stops fetching stops server work (backpressure); a
client that disconnects mid-stream has its cursors closed exactly like any
abandoned evaluation (Section 5.4.3).

The socket side — accept loop, framed reads with io/idle timeouts, the
HELLO/BYE/draining gate, request accounting, error mapping, lifecycle — is
:class:`repro.server.transport.FrameServer`, shared with the shard router;
this module adds what makes it a *database* server: the op table, cursors,
live subscriptions and replication.

Concurrency model: one handler thread per connection, all database work
serialized under a single lock.  Evaluation itself is single-threaded Python either way (and
the paper's CORAL was single-user); the lock is held per *request*, not per
connection, so many clients interleave at batch granularity — a slow
consumer never blocks the server, because between its fetches it holds
nothing.

Per-request resource limits reuse :class:`repro.eval.limits.ResourceLimits`:
the server's configured limits are cloned for every ``FETCH``/``QUERY``, so
each request gets a fresh timeout/tuple budget and one abusive query cannot
starve the rest beyond a single bounded request.

Observability: on top of the transport's connection/request/cursor
counters and request-latency histogram the server counts answers, pulls,
per-client and per-predicate traffic, replication and live-view activity
in the same :class:`repro.obs.MetricsRegistry`, and optionally records
per-connection accept/request/close events in an
:class:`repro.obs.EventTracer`.  Fault injection reuses :mod:`repro.faults`:
the transport's ``net.*`` points plus ``repl.*`` here.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple as PyTuple, Union

from ..api import Session
from ..api.session import QueryResult
from ..errors import CoralError, ProtocolError, ReadOnlyError, StorageError
from ..eval.limits import ResourceLimits
from ..faults import FaultInjector
from ..language import Literal, parse_program, parse_query
from ..obs import EventTracer, FlightRecorder, LabelCapper
from ..obs.disttrace import SpanBuffer, TraceContext
# only the changelog side is imported eagerly: ReplicationClient lives in
# repro.replication.replica, which imports this package's protocol module —
# importing it here at module level would make repro.replication and
# repro.server mutually unimportable (whichever loads first loses)
from ..replication.changelog import (
    KIND_CONSULT,
    KIND_DELETE,
    KIND_INSERT,
    Changelog,
    ChangelogRecord,
    apply_record,
    encode_mutation,
    replay_into,
)
from ..storage.serde import encode_batch
from ..terms import to_arg
from .protocol import (
    PROTOCOL_VERSION,
    FrameTimeout,
    read_frame,
    write_frame,
)
from .transport import DEFAULT_BATCH, Connection, FrameServer

#: cap on distinct label values for metric families fed by uncontrolled
#: input (client hosts, query predicates); later values collapse to "other"
_LABEL_CAP = 64

#: how many recent changelog sequences keep their originating trace context
#: for REPL_SHIP stamping (a bounded map — old writes simply ship untraced)
_SHIP_TRACE_CAP = 1024

#: ops that mutate the shared database — refused on a read replica
_WRITE_OPS = ("CONSULT", "INSERT", "DELETE")

#: events a ``trace=True`` server's tracer keeps before it drops
TRACE_LIMIT = 100_000

#: seconds a replica's stream may go without a record or heartbeat before
#: ``/healthz`` reports it degraded
STALL_AFTER = 5.0


def query_variable_names(literal: Literal) -> List[str]:
    """The query's variable names in first-occurrence order (the order
    answer batches carry binding values on the wire)."""
    names: List[str] = []
    seen = set()
    for arg in literal.args:
        for var in arg.variables():
            if var.name != "_" and var.name not in seen:
                seen.add(var.name)
                names.append(var.name)
    return names


class _Cursor:
    """One server-side cursor: a lazy :class:`QueryResult` plus the wire
    metadata the client needs to decode its batches."""

    __slots__ = ("cursor_id", "result", "vars", "arity", "query")

    def __init__(
        self,
        cursor_id: int,
        result: QueryResult,
        variables: List[str],
        arity: int,
        query: str,
    ) -> None:
        self.cursor_id = cursor_id
        self.result = result
        self.vars = variables
        self.arity = arity
        self.query = query


class _Subscription:
    """One live subscription: the session-side view plus the per-subscriber
    outbound queue the connection's ``DELTA`` long-polls drain.

    The queue is the backpressure boundary: the commit path (holding the db
    lock) only appends under ``cond`` — never touching the subscriber's
    socket — so a stalled subscriber cannot wedge a writer.  When the queue
    would exceed ``max_queue`` deltas the whole queue is discarded and the
    subscription flips to ``lagged``: the next DELTA poll answers with a
    full resnapshot instead of deltas (docs/LIVE.md)."""

    __slots__ = (
        "sub_id", "conn_id", "view", "query", "cond", "queue", "max_queue",
        "lagged", "closed_reason", "drops", "deltas_sent", "resnapshots",
    )

    def __init__(self, sub_id: int, conn_id: int, query: str,
                 max_queue: int) -> None:
        self.sub_id = sub_id
        self.conn_id = conn_id
        self.view = None
        self.query = query
        self.cond = threading.Condition()
        #: pending (sign, Tuple) deltas, in commit order
        self.queue: deque = deque()
        self.max_queue = max_queue
        self.lagged = False
        self.closed_reason: Optional[str] = None
        self.drops = 0
        self.deltas_sent = 0
        self.resnapshots = 0


class _Connection(Connection):
    """The transport's connection record plus live subscriptions and the
    replication-stream marker."""

    __slots__ = ("subs", "ship_from", "replica_name")

    def __init__(self, conn_id: int, peer: str, sock) -> None:
        super().__init__(conn_id, peer, sock)
        #: live subscriptions owned by this connection (reclaimed with it)
        self.subs: Dict[int, _Subscription] = {}
        #: set by a successful REPL_HELLO: the replica's last applied
        #: sequence — the connection then becomes a ship stream
        self.ship_from: Optional[int] = None
        self.replica_name = ""


class CoralServer(FrameServer):
    """A TCP query server around one shared :class:`~repro.api.Session`.

    ::

        server = CoralServer(session, port=0)      # 0 = ephemeral
        server.start()                             # background thread
        host, port = server.address
        ... RemoteSession(host, port) ...
        server.shutdown()

    ``limits`` (a :class:`ResourceLimits`) is cloned per request so every
    ``QUERY`` and ``FETCH`` gets a fresh timeout/tuple budget; ``faults`` threads a
    :class:`FaultInjector` through the ``net.*`` and ``repl.*`` injection
    points; ``trace=True`` records per-connection events in
    ``server.tracer``.

    Replication (docs/REPLICATION.md): ``role="primary"`` with a
    ``changelog`` (a path, or a prebuilt :class:`Changelog`) logs every
    committed mutation and ships it to replicas that connect with
    ``REPL_HELLO``; ``role="replica"`` with ``replicate_from=(host, port)``
    refuses writes, applies the primary's stream, and can be promoted with
    the ``PROMOTE`` op.  ``sync_replicas=N`` makes writes wait until N
    replicas acknowledged the record (bounded by ``ack_timeout``).

    Socket hygiene: ``io_timeout`` bounds any single frame read/write so a
    wedged or half-open client cannot pin its handler thread forever, and a
    connection idle longer than ``idle_timeout`` is reaped.
    """

    connection_class = _Connection
    #: while draining, live subscribers may also drain their queues and
    #: detach
    drain_ops = FrameServer.drain_ops + ("DELTA", "UNSUBSCRIBE")

    def __init__(
        self,
        session: Optional[Session] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        limits: Optional[ResourceLimits] = None,
        batch_size: int = DEFAULT_BATCH,
        faults: Optional[FaultInjector] = None,
        trace: bool = False,
        telemetry_port: Optional[int] = None,
        telemetry_host: str = "127.0.0.1",
        flight: Union[None, bool, FlightRecorder] = None,
        role: str = "primary",
        changelog: Union[None, str, Changelog] = None,
        replicate_from: Union[None, str, PyTuple[str, int]] = None,
        replica_name: Optional[str] = None,
        sync_replicas: int = 0,
        ack_timeout: float = 5.0,
        heartbeat: float = 1.0,
        io_timeout: Optional[float] = 30.0,
        idle_timeout: Optional[float] = 300.0,
        live_queue: int = 1024,
        trace_sample: float = 0.0,
        span_dir: Optional[str] = None,
        process_name: Optional[str] = None,
    ) -> None:
        if role not in ("primary", "replica"):
            raise ProtocolError(f"role must be 'primary' or 'replica', got {role!r}")
        self.session = session if session is not None else Session()
        faults = faults if faults is not None else FaultInjector()
        # everything that can refuse its arguments runs before the transport
        # binds the listening socket
        #: the changelog, present whenever replication is in play: a
        #: replica always keeps one (it is what REPL_HELLO resumes from and
        #: what promotion inherits); a primary keeps one when given a path
        #: or when any replication knob is on
        if isinstance(changelog, Changelog):
            self.changelog: Optional[Changelog] = changelog
        elif changelog is True:
            self.changelog = Changelog(None, faults=faults)
        elif isinstance(changelog, str):
            self.changelog = Changelog(changelog, faults=faults)
        elif role == "replica" or replicate_from is not None or sync_replicas > 0:
            self.changelog = Changelog(None, faults=faults)
        else:
            self.changelog = None
        if self.changelog is not None and len(self.changelog):
            # a reopened changelog rebuilds the session's base relations —
            # the redo replay that makes a restarted primary (or a promoted
            # replica rebooting) resume where its acknowledged writes ended
            replay_into(self.session, self.changelog.records())
        self.repl_client: Optional["ReplicationClient"] = None
        if replicate_from is not None:
            from ..replication.replica import ReplicationClient

            if isinstance(replicate_from, str):
                up_host, _, up_port = replicate_from.rpartition(":")
                replicate_from = (up_host, int(up_port))
            self.repl_client = ReplicationClient(
                self, tuple(replicate_from), name=replica_name
            )
        #: the flight recorder surfaced at /debug/flight: an explicit one,
        #: True (install a fresh recorder on the session), or whatever the
        #: session already carries
        if flight is True:
            self.flight = (
                self.session.flight
                if self.session.flight is not None
                else self.session.enable_flight_recorder()
            )
        elif flight:
            self.flight = flight
        else:
            self.flight = self.session.flight
        super().__init__(
            host,
            port,
            faults=faults,
            io_timeout=io_timeout,
            idle_timeout=idle_timeout,
            trace_sample=trace_sample,
            span_dir=span_dir,
            process_name=process_name or f"{role}-{os.getpid()}",
            telemetry_port=telemetry_port,
            telemetry_host=telemetry_host,
            telemetry_extra={"flight": self.flight},
            tracer=EventTracer(limit=TRACE_LIMIT) if trace else None,
        )
        self.limits = limits
        self.batch_size = batch_size
        #: seq -> wire trace context for REPL_SHIP stamping (bounded)
        self._ship_traces: Dict[int, str] = {}
        self.role = role
        self.sync_replicas = sync_replicas
        self.ack_timeout = ack_timeout
        self.heartbeat = heartbeat
        #: per-subscription outbound queue bound, in deltas; overflow flips
        #: the subscription to lagged → next DELTA answers a resnapshot
        self.live_queue = live_queue
        #: set by a router's WORKER_HELLO: this server's shard index in a
        #: repro.sharding fleet (None = standalone); surfaced in STATS so
        #: @top/@workers can attribute the numbers
        self.worker_index: Optional[int] = None
        self.worker_router = ""
        #: primary-side acknowledgement ledger: replica name -> (acked seq,
        #: monotonic time of that ack); guarded by _ack_cond
        self._ack_cond = threading.Condition()
        self._replica_acks: Dict[str, PyTuple[int, float]] = {}
        #: serializes all database work (parse, evaluate, update)
        self._db_lock = threading.RLock()
        self._next_sub = 0

        m = self.metrics
        self._m_pulls = m.counter(
            "server.cursor.pulls", "answers pulled from evaluation (get-next calls)"
        )
        self._m_answers = m.counter("server.answers.sent", "answers shipped to clients")
        # per-client host (not host:port — an ephemeral port per connection
        # would mint unbounded label series) and per-query-predicate labels;
        # both are fed by uncontrolled input, so each family is capped at
        # _LABEL_CAP distinct values with an "other" overflow bucket — a
        # million distinct clients cannot blow up the registry or /metrics
        self._m_client_requests = LabelCapper(
            m.counter(
                "server.client.requests",
                "requests by client host (top clients; rest under 'other')",
                ("client",),
            ),
            k=_LABEL_CAP,
        )
        self._m_query_preds = LabelCapper(
            m.counter(
                "server.query.predicates",
                "cursors opened per query predicate (top predicates; rest "
                "under 'other')",
                ("pred",),
            ),
            k=_LABEL_CAP,
        )
        self._m_repl_events = m.counter(
            "replication.events",
            "replication events (shipped/applied/duplicates/heartbeats/"
            "connects/reconnects/errors)",
            ("event",),
        )
        self._m_repl_last_seq = m.gauge(
            "replication.last_seq", "last changelog sequence on this server"
        )
        self._m_repl_lag_records = m.gauge(
            "replication.lag_records",
            "records this replica still has to apply (replica role)",
        )
        self._m_repl_lag_seconds = m.gauge(
            "replication.lag_seconds",
            "seconds since this replica last heard from its primary",
        )
        self._m_replica_lag = m.gauge(
            "replication.replica.lag_records",
            "records each connected replica has not yet acknowledged "
            "(primary role)",
            ("replica",),
        )
        self._m_replicas_connected = m.gauge(
            "replication.replicas.connected",
            "replicas currently on the ship stream (primary role)",
        )
        self._m_live_subs = m.gauge(
            "live.subscriptions", "live subscriptions currently registered"
        )
        self._m_live_deltas = m.counter(
            "live.deltas_sent", "deltas shipped to subscribers"
        )
        self._m_live_lag = m.gauge(
            "live.lag", "deltas queued across all subscriptions, not yet polled"
        )
        self._m_live_drops = m.counter(
            "live.drops", "deltas discarded by bounded-queue overflow"
        )
        self._m_live_resnapshots = m.counter(
            "live.resnapshots", "full snapshots re-sent after queue overflow"
        )

    def repl_metric(self, event: str) -> None:
        """Count one replication event (the hook ReplicationClient uses)."""
        self._m_repl_events.inc(1, event)

    def _health(self) -> PyTuple[bool, str]:
        verdict = super()._health()
        if verdict[0] and self.role == "replica" and self.repl_client is not None:
            self._refresh_replica_gauges()
            stalled = self.repl_client.stalled_for()
            if stalled is None and not self.repl_client.connected:
                return False, "degraded: replication stream never established"
            if stalled is not None and (
                stalled > STALL_AFTER or not self.repl_client.connected
            ):
                return False, (
                    f"degraded: replication stalled {stalled:.1f}s "
                    f"(applied seq {self.changelog.last_seq})"
                )
        return verdict

    def _refresh_replica_gauges(self) -> None:
        """Push the replica's current lag into its gauges (sampled on
        /healthz, STATS, and every apply, so a scrape is never stale by
        more than one probe interval)."""
        client = self.repl_client
        if client is None or self.changelog is None:
            return
        self._m_repl_last_seq.set(self.changelog.last_seq)
        self._m_repl_lag_records.set(client.lag_records())
        stalled = client.stalled_for()
        self._m_repl_lag_seconds.set(stalled if stalled is not None else -1.0)

    # -- distributed tracing (repro.obs.disttrace) ---------------------------

    def _request_trace(self, header) -> Optional[TraceContext]:
        """The transport's rule, plus: a server with a slow-query log mints
        an *unsampled* root for an otherwise untraced request, so a
        threshold trip can flip it to sampled (forced sampling)."""
        ctx = super()._request_trace(header)
        if ctx is None and self.session.slow_log is not None:
            return TraceContext.mint(False)
        return ctx

    @contextmanager
    def _session_trace(self):
        """Expose the request's trace context on the shared session (and
        flight recorder) for the duration of one db-locked block, so the
        slow-query log can tag entries / force-sample and a crash dump
        names the trace that died.  Callers hold ``_db_lock``, which is
        what makes the set/restore race-free across handler threads."""
        ctx = self._current_trace()
        if ctx is None:
            yield None
            return
        session = self.session
        flight = self.flight
        previous = session.current_trace
        session.current_trace = ctx
        if flight is not None:
            flight.current_trace = ctx
        try:
            yield ctx
        finally:
            session.current_trace = previous
            if flight is not None:
                flight.current_trace = previous

    def _note_ship_trace(self, seq: int) -> None:
        """Remember the trace context that produced changelog record ``seq``
        so the ship loop can stamp it onto the REPL_SHIP frame.  Called
        under the db lock; the map is bounded (old writes ship untraced)."""
        ctx = self._current_trace()
        if ctx is None or not ctx.sampled:
            return
        self._ship_traces[seq] = ctx.to_wire()
        while len(self._ship_traces) > _SHIP_TRACE_CAP:
            self._ship_traces.pop(next(iter(self._ship_traces)))

    # -- lifecycle (the transport's, plus the replication side services) ----

    def _begin(self) -> None:
        super()._begin()
        if self.repl_client is not None:
            self.repl_client.start()

    def shutdown(self) -> None:
        """Stop accepting, close the listening socket, free all cursors."""
        if self.repl_client is not None:
            self.repl_client.stop()
        super().shutdown()
        if self.changelog is not None:
            self.changelog.close()

    # -- per-connection hooks the transport calls ----------------------------

    def _note_request(self, conn: _Connection, op: str) -> None:
        self._m_client_requests.inc(1, conn.peer_host)

    def _takes_over(self, conn: _Connection, sock, response) -> bool:
        if conn.ship_from is None or not response.get("ok"):
            return False
        # a successful REPL_HELLO inverts the socket's roles: this handler
        # thread becomes the ship loop for one replica
        self._ship_loop(conn, sock)
        return True

    def _release(self, conn: _Connection) -> None:
        for cursor_id in list(conn.cursors):
            self._close_cursor(conn, cursor_id)
        for sub_id in list(conn.subs):
            self._close_subscription(conn, sub_id)

    def _close_cursor(self, conn: _Connection, cursor_id: int) -> bool:
        cursor = conn.cursors.pop(cursor_id, None)
        if cursor is None:
            return False
        with self._db_lock:
            cursor.result.close()
        self._count_cursors_closed()
        return True

    # -- request dispatch ----------------------------------------------------

    def _dispatch(
        self, conn: _Connection, op: str, header, body
    ) -> PyTuple[Dict[str, object], bytes, bool]:
        if self.role == "replica" and op in _WRITE_OPS:
            raise ReadOnlyError(
                f"{op} refused: this server is a read replica — writes go "
                f"to the primary"
            )
        if op == "QUERY":
            return self._op_query(conn, header) + (True,)
        if op == "FETCH":
            return self._op_fetch(conn, header) + (True,)
        if op == "CONSULT":
            return self._op_consult(conn, header), b"", True
        if op == "INSERT":
            return self._op_update(header, insert=True), b"", True
        if op == "DELETE":
            return self._op_update(header, insert=False), b"", True
        if op == "SUBSCRIBE":
            return self._op_subscribe(conn, header) + (True,)
        if op == "DELTA":
            return self._op_delta(conn, header) + (True,)
        if op == "UNSUBSCRIBE":
            sub_id = int(header.get("sub", -1))
            closed = self._close_subscription(conn, sub_id)
            return {"ok": True, "closed": closed}, b"", True
        if op == "TRACE":
            return self._op_trace(header), b"", True
        if op == "REPL_HELLO":
            return self._op_repl_hello(conn, header), b"", True
        if op == "PROMOTE":
            return self.promote(), b"", True
        if op == "WORKER_HELLO":
            return self._op_worker_hello(conn, header), b"", True
        return super()._dispatch(conn, op, header, body)

    def _op_worker_hello(self, conn: _Connection, header) -> Dict[str, object]:
        """A shard router (repro.sharding) claims this server as worker #N.

        Idempotent — a supervisor re-handshakes after every restart — and
        deliberately cheap: the index is identity for STATS/metrics
        attribution, not an access grant (any client may still talk to a
        worker directly, e.g. for debugging)."""
        index = int(header.get("worker", -1))
        if index < 0:
            raise ProtocolError(
                f"WORKER_HELLO needs a non-negative worker index, "
                f"got {header.get('worker')!r}"
            )
        self.worker_index = index
        self.worker_router = str(header.get("router", "") or conn.peer)
        return {
            "ok": True,
            "worker": index,
            "pid": os.getpid(),
            "role": self.role,
            "version": PROTOCOL_VERSION,
        }

    def _open_cursor(
        self,
        conn: _Connection,
        literal: Literal,
        query_text: str,
        result: Optional[QueryResult] = None,
    ) -> _Cursor:
        if result is None:
            result = self.session.query_literal(literal)
        cursor = _Cursor(
            self._count_cursor_opened(),
            result,
            query_variable_names(literal),
            literal.arity,
            query_text,
        )
        conn.cursors[cursor.cursor_id] = cursor
        self._m_query_preds.inc(1, f"{literal.pred}/{literal.arity}")
        return cursor

    def _op_query(
        self, conn: _Connection, header
    ) -> PyTuple[Dict[str, object], bytes]:
        """Open a cursor and answer with its first batch, under one db-lock
        acquisition; a batch that is also the last closes the cursor."""
        text = str(header.get("query", ""))

        def open_cursor() -> _Cursor:
            literal = parse_query(text).literal
            return self._open_cursor(conn, literal, text)

        return self._fill(conn, "QUERY", header, open_cursor)

    def _op_consult(self, conn: _Connection, header) -> Dict[str, object]:
        source = str(header.get("source", ""))
        record = None
        with self._db_lock, self._session_trace():
            program = parse_program(source)
            if any(c.name == "consult" for c in program.commands):
                raise ProtocolError(
                    "remote consult may not read server-side files"
                )
            results = self.session.load_program(program)
            if self.changelog is not None and (
                program.modules or program.facts or program.index_annotations
            ):
                # pure query batches ship nothing; anything that changed the
                # database (facts, modules, index annotations) is logged as
                # one CONSULT record replicas re-consult verbatim
                record = self._log(KIND_CONSULT, "", source.encode("utf-8"))
            opened = []
            for query, result in zip(program.queries, results):
                literal = query.literal
                cursor = self._open_cursor(
                    conn, literal, str(literal), result=result
                )
                opened.append(
                    {
                        "cursor": cursor.cursor_id,
                        "vars": cursor.vars,
                        "arity": cursor.arity,
                    }
                )
        if record is not None:
            self._await_replication(record.seq)
        return {"ok": True, "cursors": opened}

    def _op_fetch(
        self, conn: _Connection, header
    ) -> PyTuple[Dict[str, object], bytes]:
        cursor_id = int(header.get("cursor", -1))
        cursor = conn.cursors.get(cursor_id)
        if cursor is None:
            raise ProtocolError(f"unknown cursor {cursor_id}")
        return self._fill(conn, "FETCH", header, lambda: cursor)

    def _fill(
        self, conn: _Connection, op: str, header, open_cursor
    ) -> PyTuple[Dict[str, object], bytes]:
        """Answer ``op`` with one batch of up to ``max`` answers (default
        ``batch_size``) from the cursor ``open_cursor()`` returns; it runs
        under the same db-lock acquisition as the pulls.  The batch that
        reaches the end closes the cursor before the lock is released, so
        ``done: true`` means there is nothing left to FETCH or close."""
        limit = self._batch_limit(op, header)
        cursor: Optional[_Cursor] = None
        rows = []
        done = False
        try:
            with self._db_lock, self._session_trace():
                cursor = open_cursor()
                result = cursor.result
                if self.limits is not None:
                    result.set_limits(self.limits.clone())
                for _ in range(limit):
                    answer = result.pull()  # shipped once, never kept
                    self._m_pulls.inc()
                    if answer is None:
                        done = True
                        self._close_cursor(conn, cursor.cursor_id)
                        break
                    row = list(answer.tuple.args)
                    for name in cursor.vars:
                        row.append(answer.term(name))
                    rows.append(row)
            body = encode_batch(rows)
        except Exception:
            # evaluation died (limits, storage, a bug in a registered
            # builtin) or an answer does not encode (non-primitive): the
            # cursor's state is unusable — free it, then let the transport
            # report
            if cursor is not None:
                self._close_cursor(conn, cursor.cursor_id)
            raise
        self._m_answers.inc(len(rows))
        response: Dict[str, object] = {
            "ok": True,
            "cursor": cursor.cursor_id,
            "count": len(rows),
            "done": done,
        }
        if op == "QUERY":
            response["vars"] = cursor.vars
            response["arity"] = cursor.arity
        return response, body

    def _log(self, kind: int, pred: str, payload: bytes) -> ChangelogRecord:
        """Append one committed change to the changelog.  Called under the
        db lock, so changelog order is apply order; the record keeps the
        request's trace context for shipping."""
        record = self.changelog.append(kind, pred, payload)
        self._note_ship_trace(record.seq)
        self._m_repl_last_seq.set(self.changelog.last_seq)
        return record

    def _op_update(self, header, insert: bool) -> Dict[str, object]:
        pred = str(header.get("pred", ""))
        values = header.get("values", [])
        if not pred or not isinstance(values, list):
            raise ProtocolError("INSERT/DELETE need a pred and a values list")
        record = None
        with self._db_lock, self._session_trace():
            if insert:
                changed = self.session.insert(pred, *values)
            else:
                changed = self.session.delete(pred, *values)
            if changed and self.changelog is not None:
                record = self._log(
                    KIND_INSERT if insert else KIND_DELETE,
                    pred,
                    encode_mutation([[to_arg(v) for v in values]]),
                )
        if record is not None:
            # the ack wait happens *outside* the db lock: readers and other
            # writers proceed while this response waits for its replicas
            self._await_replication(record.seq)
        return {"ok": True, "changed": bool(changed)}

    # -- live subscriptions (docs/LIVE.md) -----------------------------------

    def _op_subscribe(
        self, conn: _Connection, header
    ) -> PyTuple[Dict[str, object], bytes]:
        """Register a live query and answer with its initial snapshot.

        The session-side :class:`~repro.live.view.LiveView` runs its delta
        callback synchronously on the commit path (under the db lock); the
        callback only appends to the subscription's bounded in-memory queue
        under its own condition — it never touches this connection's socket,
        so a subscriber that stops polling cannot stall a writer."""
        text = str(header.get("query", ""))
        with self._state_lock:
            self._next_sub += 1
            sub = _Subscription(
                self._next_sub, conn.conn_id, text, self.live_queue
            )

        def on_deltas(deltas) -> None:
            # the callback runs on the committing writer's handler thread:
            # if that write is traced, the delta emission joins its trace
            writer_ctx = self._current_trace()
            if writer_ctx is not None and writer_ctx.sampled:
                self.spans.record(
                    writer_ctx.child(),
                    "live.delta",
                    SpanBuffer.now(),
                    None,
                    sub=sub.sub_id,
                    count=len(deltas),
                )
            with sub.cond:
                if sub.closed_reason is not None:
                    return
                if len(sub.queue) + len(deltas) > sub.max_queue:
                    # overflow: drop *everything* and flip to lagged — the
                    # next DELTA poll answers with a full resnapshot, which
                    # is both correct and cheaper than a partial queue
                    dropped = len(sub.queue) + len(deltas)
                    sub.queue.clear()
                    sub.lagged = True
                    sub.drops += dropped
                    self._m_live_drops.inc(dropped)
                    self._event(
                        "live.drop", "live", sub=sub.sub_id,
                        dropped=dropped,
                    )
                else:
                    sub.queue.extend(deltas)
                sub.cond.notify_all()
            self._update_live_lag()

        def on_close(reason: str) -> None:
            with sub.cond:
                if sub.closed_reason is None:
                    sub.closed_reason = reason
                sub.queue.clear()
                sub.cond.notify_all()

        with self._db_lock, self._session_trace():
            literal = parse_query(text).literal
            view = self.session.subscribe(literal, on_deltas, on_close)
            sub.view = view
            snapshot = view.snapshot()
        conn.subs[sub.sub_id] = sub
        self._m_live_subs.inc()
        self._m_query_preds.inc(1, f"{literal.pred}/{literal.arity}")
        self._event(
            "live.subscribe", "live", sub=sub.sub_id, query=text
        )
        body = encode_batch([list(t.args) for t in snapshot])
        return (
            {
                "ok": True,
                "sub": sub.sub_id,
                "arity": literal.arity,
                "count": len(snapshot),
            },
            body,
        )

    def _op_delta(
        self, conn: _Connection, header
    ) -> PyTuple[Dict[str, object], bytes]:
        """Long-poll one subscription's delta queue.

        Pull, not push: the client asks, waits up to ``timeout`` seconds on
        the queue's condition (the db lock is *not* held while waiting), and
        receives one of four kinds — ``deltas`` (signs in the header, tuples
        in the body), ``resnapshot`` (the queue overflowed; replace all
        folded state with the body), ``none`` (empty poll), or ``closed``
        (server-side teardown: module reload, eviction, shutdown)."""
        sub_id = int(header.get("sub", -1))
        sub = conn.subs.get(sub_id)
        if sub is None:
            raise ProtocolError(f"unknown subscription {sub_id}")
        timeout = min(max(float(header.get("timeout", 10.0)), 0.0), 30.0)
        limit = self._batch_limit("DELTA", header)
        deadline = time.monotonic() + timeout
        signs: List[int] = []
        rows: List[List[object]] = []
        need_resnapshot = False
        with sub.cond:
            while (
                not sub.queue
                and not sub.lagged
                and sub.closed_reason is None
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                sub.cond.wait(remaining)
            if sub.closed_reason is not None:
                reason = sub.closed_reason
                conn.subs.pop(sub_id, None)
                self._m_live_subs.dec()
                return (
                    {"ok": True, "sub": sub_id, "kind": "closed",
                     "reason": reason},
                    b"",
                )
            if sub.lagged:
                need_resnapshot = True
            else:
                while sub.queue and len(rows) < limit:
                    sign, tup = sub.queue.popleft()
                    signs.append(sign)
                    rows.append(list(tup.args))
        if need_resnapshot:
            # lock order everywhere is db lock, then sub.cond: take the
            # snapshot under the db lock (no commit can interleave), clear
            # the queue under the condition — deltas enqueued after this
            # point apply cleanly on top of the snapshot
            with self._db_lock:
                with sub.cond:
                    sub.queue.clear()
                    sub.lagged = False
                    sub.resnapshots += 1
                if sub.view is None or sub.view.closed:
                    snapshot = []
                else:
                    snapshot = sub.view.snapshot()
            self._m_live_resnapshots.inc()
            self._update_live_lag()
            self._event(
                "live.resnapshot", "live", sub=sub_id,
                count=len(snapshot),
            )
            return (
                {
                    "ok": True,
                    "sub": sub_id,
                    "kind": "resnapshot",
                    "count": len(snapshot),
                },
                encode_batch([list(t.args) for t in snapshot]),
            )
        if not rows:
            return ({"ok": True, "sub": sub_id, "kind": "none"}, b"")
        sub.deltas_sent += len(rows)
        self._m_live_deltas.inc(len(rows))
        self._update_live_lag()
        return (
            {
                "ok": True,
                "sub": sub_id,
                "kind": "deltas",
                "signs": signs,
                "count": len(rows),
            },
            encode_batch(rows),
        )

    def _close_subscription(self, conn: _Connection, sub_id: int) -> bool:
        sub = conn.subs.pop(sub_id, None)
        if sub is None:
            return False
        with self._db_lock:
            if sub.view is not None and not sub.view.closed:
                self.session.unsubscribe(sub.view.view_id)
        with sub.cond:
            if sub.closed_reason is None:
                sub.closed_reason = "unsubscribed"
            sub.queue.clear()
            sub.cond.notify_all()
        self._m_live_subs.dec()
        self._update_live_lag()
        return True

    def _update_live_lag(self) -> None:
        """Refresh the ``live.lag`` gauge: total queued-but-unsent deltas
        across every subscription (the backlog a slow poller is behind by)."""
        with self._state_lock:
            total = sum(
                len(sub.queue)
                for c in self._connections.values()
                for sub in c.subs.values()
            )
        self._m_live_lag.set(total)

    # -- replication (docs/REPLICATION.md) -----------------------------------

    def _op_repl_hello(self, conn: _Connection, header) -> Dict[str, object]:
        if self.changelog is None:
            raise ProtocolError(
                "replication is not enabled on this server (no changelog)"
            )
        if self.role != "primary":
            raise ProtocolError(
                "REPL_HELLO must go to the primary; this server is a replica"
            )
        last_seq = int(header.get("last_seq", 0))
        if last_seq < 0 or last_seq > self.changelog.last_seq:
            raise ProtocolError(
                f"replica claims sequence #{last_seq} but this primary is at "
                f"#{self.changelog.last_seq} — refusing to ship backwards "
                f"(was the wrong server promoted?)"
            )
        conn.ship_from = last_seq
        conn.replica_name = str(header.get("replica", "") or conn.peer)
        return {
            "ok": True,
            "role": self.role,
            "last_seq": self.changelog.last_seq,
        }

    def _ship_loop(self, conn: _Connection, sock) -> None:
        """Stream the changelog to one replica until either side dies.

        Runs on the connection's handler thread after ``REPL_HELLO``; each
        iteration ships one record (or, when the log is quiet for a
        ``heartbeat`` interval, a heartbeat frame) and waits for the
        replica's ``REPL_ACK`` — per-record acknowledgement is the flow
        control, exactly like cursor FETCH backpressure."""
        name = conn.replica_name
        next_seq = conn.ship_from + 1
        with self._ack_cond:
            self._replica_acks[name] = (conn.ship_from, time.monotonic())
            self._ack_cond.notify_all()
        self._m_replicas_connected.inc()
        self._m_repl_events.inc(1, "connects")
        self._event(
            "repl.connect", "server", conn=conn.conn_id, replica=name
        )
        try:
            while self._serving and self.role == "primary":
                record = self.changelog.wait_for(next_seq, timeout=self.heartbeat)
                if record is None:
                    header = {
                        "op": "REPL_SHIP",
                        "heartbeat": True,
                        "seq": self.changelog.last_seq,
                    }
                    body = b""
                else:
                    header = {
                        "op": "REPL_SHIP",
                        "seq": record.seq,
                        "kind": record.kind,
                        "pred": record.pred,
                        "crc": record.crc,
                    }
                    wire_trace = self._ship_traces.get(record.seq)
                    if wire_trace is not None:
                        # propagate the originating write's trace context so
                        # the replica's apply span joins the same trace
                        header["trace"] = wire_trace
                    body = record.payload
                self.faults.check("repl.ship")
                write_frame(sock, header, body)
                self.faults.check("repl.ack")
                frame = read_frame(sock)
                if frame is None:
                    return  # replica hung up cleanly
                ack, _ = frame
                if ack.get("op") != "REPL_ACK":
                    raise ProtocolError(
                        f"expected REPL_ACK from replica {name}, got "
                        f"{ack.get('op')!r}"
                    )
                self._record_ack(name, int(ack.get("seq", 0)))
                if record is not None:
                    next_seq = record.seq + 1
                    self._m_repl_events.inc(1, "shipped")
                    self._event(
                        "repl.ship", "server", seq=record.seq, replica=name
                    )
                else:
                    self._m_repl_events.inc(1, "heartbeats")
        except (FrameTimeout, ProtocolError, OSError, ValueError, TypeError):
            # a stalled, dead, or garbled replica (including one acking with
            # a malformed sequence) drops only its own stream; it reconnects
            # with REPL_HELLO and resumes from its sequence
            self._m_errors.inc(1, "repl_ship")
        finally:
            self._replica_gone(name)

    def _record_ack(self, name: str, seq: int) -> None:
        now = time.monotonic()
        with self._ack_cond:
            previous = self._replica_acks.get(name, (0, now))[0]
            self._replica_acks[name] = (max(previous, seq), now)
            self._ack_cond.notify_all()
        lag = max(0, self.changelog.last_seq - seq)
        self._m_replica_lag.set(lag, name)
        self._m_repl_last_seq.set(self.changelog.last_seq)

    def _replica_gone(self, name: str) -> None:
        with self._ack_cond:
            self._replica_acks.pop(name, None)
            self._ack_cond.notify_all()
        self._m_replicas_connected.dec()
        self._event("repl.disconnect", "server", replica=name)

    def _await_replication(self, seq: int) -> None:
        """Block until ``sync_replicas`` replicas acknowledged ``seq``.

        With ``sync_replicas=0`` (the default) shipping is asynchronous and
        this returns immediately.  On timeout the write is *not* rolled back
        — it is durable locally — but the client gets a StorageError, i.e.
        the write is unacknowledged and the chaos harness treats it as
        allowed-to-be-lost."""
        if self.sync_replicas <= 0:
            return
        deadline = time.monotonic() + self.ack_timeout
        with self._ack_cond:
            while True:
                acked = sum(
                    1
                    for acked_seq, _ in self._replica_acks.values()
                    if acked_seq >= seq
                )
                if acked >= self.sync_replicas:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise StorageError(
                        f"replication sync timeout: record #{seq} "
                        f"acknowledged by {acked} of the required "
                        f"{self.sync_replicas} replica(s) within "
                        f"{self.ack_timeout}s"
                    )
                self._ack_cond.wait(remaining)

    def apply_replicated(
        self,
        seq: int,
        kind: int,
        pred: str,
        payload: bytes,
        trace: Optional[str] = None,
    ) -> bool:
        """Apply one shipped record on a replica, sequence-gated.

        A duplicate (``seq`` at or below the applied horizon) is counted and
        dropped — re-shipping after a reconnect is idempotent.  A gap raises
        :class:`ProtocolError`, forcing a reconnect whose ``REPL_HELLO``
        names the exact sequence this replica needs: a replica can fall
        behind but never silently diverge.  Apply happens before the
        changelog append; on a crash between the two, boot-time replay of
        the changelog (the source of truth) reconverges, and the primary
        re-ships anything unacknowledged."""
        ctx = None
        if trace is not None:
            parent = TraceContext.from_wire(trace)
            if parent is not None and parent.sampled:
                ctx = parent.child()
        apply_started = SpanBuffer.now() if ctx is not None else 0.0
        with self._db_lock:
            last = self.changelog.last_seq
            if seq <= last:
                self._m_repl_events.inc(1, "duplicates")
                return False
            if seq != last + 1:
                raise ProtocolError(
                    f"replication gap: shipped record #{seq} but this "
                    f"replica has applied only #{last}"
                )
            record = ChangelogRecord(seq, kind, pred, payload)
            try:
                apply_record(self.session, record)
            except CoralError:
                # apply failed, nothing logged: the sequence did not move,
                # so the reconnect re-requests exactly this record
                self._m_errors.inc(1, "repl_apply")
                raise
            self.changelog.append(kind, pred, payload, seq=seq)
        self._m_repl_events.inc(1, "applied")
        self._refresh_replica_gauges()
        self._event("repl.apply", "server", seq=seq)
        if ctx is not None:
            self.spans.record(
                ctx,
                "replica.apply",
                apply_started,
                SpanBuffer.now(),
                seq=seq,
                pred=pred,
            )
        return True

    def promote(self) -> Dict[str, object]:
        """Turn this replica into a writable primary (failover).

        Drains the apply queue first — the replication client finishes the
        record it is applying, then stops — so promotion never cuts an apply
        in half.  Idempotent: promoting a primary reports ``promoted:
        False``.  The new primary keeps its changelog and sequence, so
        surviving replicas re-pointed at it (:meth:`set_upstream`) resume
        exactly where they were."""
        if self.role == "primary":
            return {
                "ok": True,
                "role": "primary",
                "promoted": False,
                "last_seq": self.changelog.last_seq if self.changelog else 0,
            }
        if self.repl_client is not None:
            self.repl_client.stop()  # drains the in-flight apply
        self.role = "primary"
        self._m_repl_events.inc(1, "promotions")
        self._event(
            "repl.promote", "server", last_seq=self.changelog.last_seq
        )
        return {
            "ok": True,
            "role": "primary",
            "promoted": True,
            "last_seq": self.changelog.last_seq,
        }

    def set_upstream(self, host: str, port: int) -> None:
        """Re-point this replica at a different primary (after a promotion
        elsewhere); the stream resumes from this replica's own sequence."""
        if self.repl_client is None:
            from ..replication.replica import ReplicationClient

            self.repl_client = ReplicationClient(self, (host, port))
            if self._serving:
                self.repl_client.start()
        else:
            self.repl_client.retarget((host, port))

    def replication_stats(self) -> Dict[str, object]:
        """The ``replication`` section of STATS, shaped by role."""
        if self.changelog is None:
            return {"role": self.role, "enabled": False}
        payload: Dict[str, object] = {
            "role": self.role,
            "enabled": True,
            "last_seq": self.changelog.last_seq,
        }
        with self._ack_cond:
            acks = dict(self._replica_acks)
        if acks or self.role == "primary":
            now = time.monotonic()
            payload["replicas"] = {
                name: {
                    "acked_seq": acked_seq,
                    "lag_records": max(0, self.changelog.last_seq - acked_seq),
                    "ack_age_seconds": round(now - at, 3),
                }
                for name, (acked_seq, at) in acks.items()
            }
            payload["sync_replicas"] = self.sync_replicas
        client = self.repl_client
        if client is not None:
            stalled = client.stalled_for()
            payload["upstream"] = {
                "address": f"{client.upstream[0]}:{client.upstream[1]}",
                "connected": client.connected,
                "upstream_seq": client.upstream_seq,
                "lag_records": client.lag_records(),
                "lag_seconds": round(stalled, 3) if stalled is not None else None,
                "reconnects": client.reconnects,
            }
        return payload

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The STATS payload: the transport's stanza plus the shared
        session's evaluation statistics and, when in play, the worker,
        replication, buffer, memo and live sections."""
        with self._db_lock:
            eval_stats = self.session.stats.snapshot()
            memo = getattr(self.session, "memo", None)
            memo_stats = memo.snapshot() if memo is not None else None
            live = getattr(self.session, "live", None)
            live_stats = live.snapshot() if live is not None else None
            buffer_stats = self.session.buffer_stats()
        if live_stats is not None:
            with self._state_lock:
                subs = [
                    sub
                    for c in self._connections.values()
                    for sub in c.subs.values()
                ]
            live_stats["queued"] = sum(len(s.queue) for s in subs)
            live_stats["deltas_sent"] = sum(s.deltas_sent for s in subs)
            live_stats["drops"] = sum(s.drops for s in subs)
            live_stats["resnapshots"] = sum(s.resnapshots for s in subs)
        payload = super().stats()
        payload["eval"] = eval_stats
        payload["trace"]["events_dropped"] = (
            self.tracer.dropped if self.tracer is not None else 0
        )
        if self.worker_index is not None:
            payload["worker"] = {
                "index": self.worker_index,
                "pid": os.getpid(),
                "router": self.worker_router,
            }
        if self.changelog is not None or self.repl_client is not None:
            payload["replication"] = self.replication_stats()
        if buffer_stats is not None:
            payload["buffer"] = buffer_stats
        if memo_stats is not None:
            payload["memo"] = memo_stats
        if live_stats is not None:
            payload["live"] = live_stats
        return payload
