"""The remote session: the :class:`~repro.api.Session` API over a socket,
with optional replica-set failover.

:class:`RemoteSession` mirrors the local embedding interface (paper
Section 6) so host code can switch between in-process and client-server
deployment by changing one constructor::

    with RemoteSession("127.0.0.1", 4242) as db:
        for answer in db.query("path(msn, X)"):
            print(answer["X"])

Iteration is *lazy across the wire*: a query opens a server-side cursor and
answers with the first batch; each later batch is pulled with ``FETCH`` only
when iteration needs it — the get-next-tuple discipline of Sections 3/5.6,
with the network hop amortized over ``batch_size`` answers, and one round
trip in all for an answer set smaller than a batch.  Abandoning a result
(:meth:`RemoteQueryResult.close`, or just dropping it and closing the
session) closes the server-side cursor, exactly like abandoning a local lazy
evaluation (Section 5.4.3).

Replica sets (docs/REPLICATION.md): pass a *list* of ``"host:port"``
endpoints instead of one host and the session fails over transparently::

    with RemoteSession(["10.0.0.1:4242", "10.0.0.2:4242"]) as db:
        db.insert("edge", 1, 2)        # routed to whichever node is primary
        db.query("edge(X, Y)").all()   # served by any reachable node

Reads run on one connection to any reachable endpoint; when it dies the
next request retries against the next endpoint with capped exponential
backoff plus jitter.  Writes run on a second connection that the session
resolves to the primary by probing — a node answering ``ReadOnlyError`` is
a replica, so the probe moves on — and re-resolves after a promotion.  An
*in-flight cursor* cannot move between servers (its state lives on the
connection that opened it), so losing that connection surfaces a typed
:class:`~repro.errors.FailoverError` — as does exhausting the retry budget.
With a single ``host``/``port`` (the classic constructor) none of this
machinery engages: one shared connection, no retries, errors exactly as
before.

Answers reuse the local :class:`~repro.api.session.Answer` class, so
``answer["X"]``, ``answer.tuple`` and ``answer.variables()`` behave
identically on both sides of the wire.  Server-side failures are re-raised
under their original :class:`~repro.errors.CoralError` subclass; transport
failures raise :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
    Union,
)

from ..api.session import Answer, QueryResult
from ..errors import (
    CoralError,
    FailoverError,
    ProtocolError,
    ReadOnlyError,
    WorkerRestartingError,
)
from ..obs.disttrace import HeadSampler, SpanBuffer, TraceContext
from ..relations import Tuple
from ..server.protocol import (
    PROTOCOL_VERSION,
    FrameTimeout,
    error_from_response,
    read_frame,
    write_frame,
)
from ..storage.serde import decode_batch
from ..terms import to_arg


#: what an unsampled operation runs in (stateless, so one instance serves)
_UNTRACED = nullcontext()


class _TransportLost(Exception):
    """Internal marker: the round trip failed at the socket layer (as
    opposed to the server answering with an error).  Carries the cause;
    ``closed`` flags a clean server-side close (EOF at a frame boundary)."""

    def __init__(self, cause: Exception, closed: bool = False) -> None:
        super().__init__(str(cause))
        self.cause = cause
        self.closed = closed


class _Link:
    """One live connection: socket, endpoint index, and a generation that
    increments on every reconnect — a cursor opened on generation N is dead
    the moment the link moves to N+1."""

    __slots__ = ("sock", "index", "generation", "info")

    def __init__(self, sock, index: int, generation: int, info: str) -> None:
        self.sock = sock
        self.index = index
        self.generation = generation
        self.info = info


def _hang_up(sock, say_bye: bool = False) -> None:
    """Drop a connection, with a clean goodbye or without; never raises."""
    if say_bye:
        try:
            write_frame(sock, {"op": "BYE"})
            read_frame(sock)
        except (FrameTimeout, ProtocolError, OSError):
            pass
    try:
        sock.close()
    except OSError:
        pass


class RemoteQueryResult(QueryResult):
    """A pull-based cursor over a remote query's answers — the client half
    of a server-side cursor, and a :class:`~repro.api.session.QueryResult`
    over the answers of batch after batch: iterate lazily, or ``all()`` /
    ``list(...)`` / ``len(...)`` to drain.

    ``meta`` is the response that opened the cursor (its ``cursor``,
    ``vars`` and ``arity``).  A ``QUERY`` result starts with that response's
    batch (``body``) and, when the batch is already ``done``, holds no
    server-side cursor at all; a ``CONSULT`` result starts empty."""

    def __init__(
        self,
        session: "RemoteSession",
        link: _Link,
        meta: Dict[str, object],
        batch_size: int,
        trace: Optional[TraceContext] = None,
        body: Optional[bytes] = None,
    ) -> None:
        self._session = session
        self._link = link
        self._generation = link.generation
        self._cursor_id = meta.get("cursor")
        self._batch_size = batch_size
        #: the trace context minted for the QUERY that opened this cursor;
        #: every FETCH runs under a child of it, so the whole drain shares
        #: one trace id
        self._trace = trace
        self.trace_id = trace.trace_id if trace is not None else None
        rows = decode_batch(body) if body is not None else None
        source = self._answers(meta, rows)
        next(source)  # primed: closing it from here on frees the cursor
        super().__init__(source)

    def _answers(
        self, header: Dict[str, object], rows: Optional[list]
    ) -> Iterator[Answer]:
        """The answers of ``rows`` (the first batch), then of each batch
        FETCHed when the last is used up.  Closed by :meth:`close`, it
        keeps the answers received but not read yet, and tells the server
        to free the cursor while it still holds one: no ``done`` batch yet,
        no failed FETCH (the server frees the cursor before erroring)."""
        arity = int(header["arity"])
        #: a variable's position in a row: its value follows the tuple's
        where = {name: arity + i for i, name in enumerate(header["vars"])}
        batch = iter(rows or ())
        try:
            yield  # where the constructor primes it
            while True:
                for row in batch:
                    yield Answer(tuple(row[:arity]), where, row)
                if header.get("done"):
                    return
                header, rows = self._fetch()
                batch = iter(rows)
        except GeneratorExit:
            # only close() marks the result done first; a result collected
            # unclosed leaves its cursor to the connection's end
            if self._done:
                self._cache.extend(
                    Answer(tuple(row[:arity]), where, row) for row in batch
                )
                if not header.get("done"):
                    self._close_cursor()
            raise

    def _close_cursor(self) -> None:
        header: Dict[str, object] = {
            "op": "CLOSE_CURSOR",
            "cursor": self._cursor_id,
        }
        if self._trace is not None:
            header["trace"] = self._trace.to_wire()
        try:
            self._session._cursor_request(self._link, self._generation, header)
        except (ProtocolError, OSError):
            pass  # connection already gone: the server freed it on its side

    def _fetch(self) -> PyTuple[Dict[str, object], list]:
        """One FETCH round trip: its response header and decoded rows."""
        request: Dict[str, object] = {
            "op": "FETCH",
            "cursor": self._cursor_id,
            "max": self._batch_size,
        }
        # each FETCH gets its own child span: the server's request.FETCH
        # span then nests under this hop's client.fetch in the assembly
        child = self._trace.child() if self._trace is not None else None
        started = 0.0
        if child is not None:
            request["trace"] = child.to_wire()
            started = SpanBuffer.now()
        header, body = self._session._cursor_request(
            self._link, self._generation, request
        )
        rows = decode_batch(body)
        if child is not None:
            self._session.spans.record(
                child,
                "client.fetch",
                started,
                SpanBuffer.now(),
                cursor=self._cursor_id,
                rows=len(rows),
            )
        return header, rows

    def __repr__(self) -> str:
        state = "done" if self._done else "open"
        return (
            f"<RemoteQueryResult cursor={self._cursor_id} {state} "
            f"cached={len(self._cache)}>"
        )


class RemoteSubscription:
    """The client half of one live query (docs/LIVE.md).

    Owns a **dedicated connection**: ``DELTA`` is a long-poll that parks on
    the socket until a delta arrives, so a subscription sharing the
    session's request link would starve every other call.  The server binds
    the subscription to this connection — closing it (or dying with it)
    reclaims the server-side view.

    The subscription keeps a *folded view*: the initial snapshot with every
    received delta applied, in order.  :meth:`poll` drives it::

        sub = session.subscribe("?- path(1, X).")
        kind, payload = sub.poll(timeout=5.0)
        # kind: "deltas" (payload: [(sign, values), ...]),
        #       "resnapshot" (payload: the replacement view),
        #       "none" (empty poll), "closed" (payload: the reason)

    or iterate :meth:`deltas`, which polls forever and yields one
    ``(sign, values)`` pair per delta (resnapshots are folded silently —
    read :meth:`view` for the authoritative state after any yield)."""

    def __init__(
        self,
        session: "RemoteSession",
        link: _Link,
        sub_id: int,
        arity: int,
        query: str,
        snapshot_rows: List[list],
    ) -> None:
        self._session = session
        self._link = link
        self.sub_id = sub_id
        self.arity = arity
        self.query = query
        self.closed = False
        self.close_reason: Optional[str] = None
        self.deltas_received = 0
        self.resnapshots = 0
        self._state: Dict[object, tuple] = {}
        for row in snapshot_rows:
            key, values = self._decode_row(row)
            self._state[key] = values

    @staticmethod
    def _decode_row(row: list) -> PyTuple[object, tuple]:
        from ..terms import from_arg

        args = tuple(row)
        return Tuple(args).key(), tuple(from_arg(a) for a in args)

    def view(self) -> List[tuple]:
        """The folded answer set: snapshot plus every delta received so
        far, as plain Python value tuples."""
        return sorted(self._state.values(), key=repr)

    def poll(
        self, timeout: float = 10.0, max: Optional[int] = None
    ) -> PyTuple[str, object]:
        """One DELTA long-poll; blocks up to ``timeout`` seconds server-side.

        Folds the response into :meth:`view` and returns ``(kind,
        payload)`` — see the class docstring for the four kinds."""
        if self.closed:
            return "closed", self.close_reason
        header: Dict[str, object] = {
            "op": "DELTA",
            "sub": self.sub_id,
            "timeout": timeout,
        }
        if max is not None:
            header["max"] = max
        # the server answers within its clamped timeout; give the socket
        # room on top so an idle poll is never misread as a wedged server
        self._link.sock.settimeout(min(timeout, 30.0) + 10.0)
        try:
            frame = self._session._transport(self._link, header, b"")
            response, body = self._session._unwrap(frame)
        except _TransportLost as exc:
            self.closed = True
            self.close_reason = f"connection lost: {exc.cause}"
            raise exc.cause from None
        kind = str(response.get("kind", "none"))
        if kind == "closed":
            self.close_reason = str(response.get("reason", "server closed"))
            self.closed = True
            _hang_up(self._link.sock, say_bye=True)
            return "closed", self.close_reason
        if kind == "resnapshot":
            self.resnapshots += 1
            self._state = {}
            for row in decode_batch(body):
                key, values = self._decode_row(row)
                self._state[key] = values
            return "resnapshot", self.view()
        if kind == "deltas":
            signs = list(response.get("signs", []))
            out = []
            for sign, row in zip(signs, decode_batch(body)):
                key, values = self._decode_row(row)
                if sign > 0:
                    self._state[key] = values
                else:
                    self._state.pop(key, None)
                out.append((sign, values))
            self.deltas_received += len(out)
            return "deltas", out
        return "none", []

    def deltas(self, poll_timeout: float = 10.0) -> Iterator[PyTuple[int, tuple]]:
        """Poll forever, yielding one ``(sign, values)`` pair per delta.
        Resnapshots fold into :meth:`view` without yielding; the iterator
        ends when the subscription closes (either side)."""
        while not self.closed:
            kind, payload = self.poll(timeout=poll_timeout)
            if kind == "deltas":
                for delta in payload:
                    yield delta
            elif kind == "closed":
                return

    def close(self) -> None:
        """Unsubscribe and drop the dedicated connection.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        self.close_reason = "closed by client"
        try:
            frame = self._session._transport(
                self._link, {"op": "UNSUBSCRIBE", "sub": self.sub_id}, b""
            )
            self._session._unwrap(frame)
        except (_TransportLost, CoralError, OSError):
            pass  # connection already gone: the server reclaims the view
        _hang_up(self._link.sock, say_bye=True)

    def __enter__(self) -> "RemoteSubscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = (
            f"closed ({self.close_reason})" if self.closed else
            f"open view={len(self._state)}"
        )
        return f"<RemoteSubscription #{self.sub_id} {self.query!r} {state}>"


def _parse_endpoint(value: Union[str, PyTuple[str, int]]) -> PyTuple[str, int]:
    if isinstance(value, str):
        host, sep, port = value.rpartition(":")
        if not sep or not port.isdigit():
            raise ProtocolError(
                f"replica-set endpoint must look like 'host:port', "
                f"got {value!r}"
            )
        return host, int(port)
    host, port = value
    return str(host), int(port)


class RemoteSession:
    """A connection to one :class:`~repro.server.CoralServer` — or to a
    replica set of them.

    ``host`` is either a hostname (classic single-server mode, with
    ``port``) or a list of ``"host:port"`` endpoints (replica-set mode with
    transparent failover — see the module docstring).  ``batch_size`` is
    the answers each QUERY or FETCH asks for and ``timeout`` bounds any single
    round trip.  In replica-set mode ``retries`` is the number of full
    passes over the endpoint list before a request gives up with
    :class:`FailoverError`, backing off exponentially from ``backoff`` up
    to ``backoff_cap`` seconds (with full jitter) between attempts.

    ``counters`` tracks the failover machinery: ``reconnects`` (links
    established beyond each role's first), ``retries`` (request attempts
    beyond the first), and ``failovers`` (connections abandoned after a
    transport failure).
    """

    def __init__(
        self,
        host: Union[str, Sequence[Union[str, PyTuple[str, int]]]] = "127.0.0.1",
        port: int = 4242,
        batch_size: int = 64,
        timeout: Optional[float] = 30.0,
        *,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        restart_retries: int = 10,
        trace_sample: float = 0.0,
        trace_dir: Optional[str] = None,
        process_name: str = "client",
    ) -> None:
        if batch_size < 1:
            raise ProtocolError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.timeout = timeout
        #: distributed tracing (docs/OBSERVABILITY.md): mint a sampled
        #: trace context for this fraction of logical operations and carry
        #: it on their wire headers; client-side spans land in ``spans``
        #: (and, with ``trace_dir``, in <trace_dir>/<process_name>.jsonl)
        self.trace_sampler = HeadSampler(trace_sample)
        self.spans = SpanBuffer(
            process_name,
            path=(
                os.path.join(trace_dir, f"{process_name}.jsonl")
                if trace_dir
                else None
            ),
        )
        #: the trace id of the most recently sampled operation (what the
        #: shell prints so ``@trace <id>`` has something to look up)
        self.last_trace_id: Optional[str] = None
        self.retries = max(1, retries)
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        #: extra attempts when a shard router answers WorkerRestartingError
        #: — the worker is rebooting (process spawn plus handshake), so the
        #: budget is deliberately larger than the transport-failure one
        self.restart_retries = max(0, restart_retries)
        self._lock = threading.Lock()
        self._closed = False
        self._generation = 0
        self._subscriptions: List[RemoteSubscription] = []
        self.counters = {"reconnects": 0, "retries": 0, "failovers": 0}
        if isinstance(host, (list, tuple)):
            if not host:
                raise ProtocolError("replica set needs at least one endpoint")
            self.endpoints = [_parse_endpoint(item) for item in host]
            self.replica_set = True
            self._read: Optional[_Link] = None
            self._write: Optional[_Link] = None
            #: endpoint index believed to be the primary; None = unresolved
            self._primary_index: Optional[int] = None
            with self._lock:
                self._read = self._connect_any(start=0)
            self.address = self.endpoints[self._read.index]
            self.server_info = self._read.info
        else:
            self.endpoints = [(host, int(port))]
            self.replica_set = False
            self._primary_index = 0
            link = self._connect(0)
            self._read = link
            self._write = link
            self.address = self.endpoints[0]
            self.server_info = link.info

    # -- distributed tracing --------------------------------------------------

    def _span(self, request: Dict[str, object], name: str, **attrs):
        """The context one logical operation runs in, after one head-based
        sampling decision: a no-op unless it says yes."""
        if not self.trace_sampler.decide():
            return _UNTRACED
        return self._sampled_span(request, name, attrs)

    @contextmanager
    def _sampled_span(self, request: Dict[str, object], name: str, attrs):
        """Mint a fresh root context (remembered as :attr:`last_trace_id`),
        stamp it onto ``request``, yield it and, when the block completes,
        record the client-side ``name`` span."""
        ctx = TraceContext.mint(sampled=True)
        self.last_trace_id = ctx.trace_id
        request["trace"] = ctx.to_wire()
        started = SpanBuffer.now()
        yield ctx
        self.spans.record(ctx, name, started, SpanBuffer.now(), **attrs)

    def trace(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """All spans recorded under ``trace_id`` (default: the last trace
        this session sampled): the server's — gathered cluster-wide by a
        router — via the ``TRACE`` op, merged with this client's own."""
        target = trace_id if trace_id is not None else self.last_trace_id
        if target is None:
            raise ProtocolError(
                "no trace id given and no operation has been sampled yet "
                "(construct the session with trace_sample > 0)"
            )
        _, (header, _) = self._request({"op": "TRACE", "id": target})
        spans = [
            span
            for span in header.get("spans", [])
            if isinstance(span, dict)
        ]
        spans.extend(self.spans.spans_for(target))
        return spans

    # -- queries ------------------------------------------------------------

    def query(self, text: str, batch_size: Optional[int] = None) -> RemoteQueryResult:
        """Open a server-side cursor for a textual query; the response
        carries its first batch, so an error evaluating that batch (a
        resource limit, storage) raises here, not at the first read."""
        size = batch_size or self.batch_size
        request: Dict[str, object] = {"op": "QUERY", "query": text, "max": size}
        with self._span(request, "client.query", query=text) as ctx:
            link, (header, body) = self._request(request)
        return RemoteQueryResult(self, link, header, size, trace=ctx, body=body)

    def query_values(self, pred: str, *values: Any) -> RemoteQueryResult:
        """Programmatic query mirroring :meth:`Session.query_values`:
        ``None`` leaves an argument free; a value is sent as its printed
        term, which re-parses as itself."""
        parts = []
        for index, value in enumerate(values):
            parts.append(f"V{index}" if value is None else str(to_arg(value)))
        return self.query(f"{pred}({', '.join(parts)})" if parts else pred)

    def consult_string(self, source: str) -> List[RemoteQueryResult]:
        """Load program text into the shared server database; queries in the
        text come back as open cursors (one per query, in order).  A write:
        routed to the primary in replica-set mode."""
        request: Dict[str, object] = {"op": "CONSULT", "source": source}
        with self._span(request, "client.consult", bytes=len(source)) as ctx:
            link, (header, _) = self._request(request, write=True)
        return [
            RemoteQueryResult(self, link, item, self.batch_size, trace=ctx)
            for item in header.get("cursors", [])
        ]

    # -- updates and introspection ------------------------------------------

    def insert(self, pred: str, *values: Any) -> bool:
        return self._update("INSERT", pred, list(values))

    def delete(self, pred: str, *values: Any) -> bool:
        return self._update("DELETE", pred, list(values))

    def _update(self, op: str, pred: str, values: List[Any]) -> bool:
        request: Dict[str, object] = {"op": op, "pred": pred, "values": values}
        with self._span(request, f"client.{op.lower()}", pred=pred):
            _, (header, _) = self._request(request, write=True)
        return bool(header.get("changed"))

    def stats(self) -> Dict[str, Any]:
        """The server's STATS payload: connections, cursors, requests, the
        shared session's evaluation counters, and the metrics registry."""
        _, (header, _) = self._request({"op": "STATS"})
        return header["stats"]

    def subscribe(self, query: str) -> RemoteSubscription:
        """Register a live query (docs/LIVE.md): the server answers with an
        initial snapshot, then streams ``+``/``-`` deltas as base facts
        change.  Opens a **dedicated connection** — DELTA long-polls park on
        the socket, so sharing the session's request link would starve it.

        Raises :class:`~repro.errors.SubscriptionError` when the query's
        goal cannot be maintained incrementally (negation, aggregation, ...
        — the ``maintain`` column of docs/INTERNALS.md's capability
        table)."""
        if self._closed:
            raise ProtocolError("remote session is closed")
        with self._lock:
            index = self._read.index if self._read is not None else 0
            link = self._connect(index)
        request: Dict[str, object] = {"op": "SUBSCRIBE", "query": query}
        with self._span(request, "client.subscribe", query=query):
            header, body = self._first_exchange(link, request)
        sub = RemoteSubscription(
            self,
            link,
            int(header["sub"]),
            int(header["arity"]),
            query,
            decode_batch(body),
        )
        with self._lock:
            self._subscriptions = [
                s for s in self._subscriptions if not s.closed
            ]
            self._subscriptions.append(sub)
        return sub

    def promote(
        self, endpoint: Union[None, int, str, PyTuple[str, int]] = None
    ) -> Dict[str, Any]:
        """Send ``PROMOTE`` — turn a replica into a writable primary.

        In replica-set mode ``endpoint`` picks the node (an index into the
        endpoint list, a ``"host:port"`` string, or a tuple; default: the
        node the read connection is on) over a one-shot connection, and the
        session forgets its cached primary so the next write re-resolves.
        In single-server mode the PROMOTE goes to the connected server.
        """
        if not self.replica_set:
            _, (header, _) = self._request({"op": "PROMOTE"})
            return header
        with self._lock:
            if endpoint is None:
                index = self._read.index if self._read is not None else 0
            elif isinstance(endpoint, int):
                index = endpoint
            else:
                target = _parse_endpoint(endpoint)
                if target not in self.endpoints:
                    self.endpoints.append(target)
                index = self.endpoints.index(target)
            link = self._connect(index)
            try:
                frame = self._transport(link, {"op": "PROMOTE"}, b"")
                header, _ = self._unwrap(frame)
            finally:
                _hang_up(link.sock)
            # the topology changed: re-resolve the primary on the next write
            self._primary_index = index
            self._drop("_write")
            return header

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Say BYE and drop the connection(s).  Idempotent; the server
        frees any cursors this client still holds."""
        if self._closed:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            links = {id(l): l for l in (self._read, self._write) if l is not None}
            self._read = None
            self._write = None
            subscriptions = self._subscriptions
            self._subscriptions = []
        for sub in subscriptions:
            sub.close()
        for link in links.values():
            _hang_up(link.sock, say_bye=True)
        self.spans.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connections ----------------------------------------------------------

    def _connect(self, index: int) -> _Link:
        """Dial one endpoint and complete the HELLO handshake."""
        host, port = self.endpoints[index]
        try:
            sock = socket.create_connection((host, port), timeout=self.timeout)
        except OSError as exc:
            raise ProtocolError(
                f"cannot connect to coral server at {host}:{port}: {exc}"
            ) from exc
        self._generation += 1
        link = _Link(sock, index, self._generation, "?")
        header, _ = self._first_exchange(
            link,
            {
                "op": "HELLO",
                "version": PROTOCOL_VERSION,
                "client": "repro.client/1",
            },
        )
        link.info = str(header.get("server", "?"))
        return link

    def _first_exchange(
        self, link: _Link, header: Dict[str, object]
    ) -> PyTuple[Dict[str, object], bytes]:
        """One round trip on a link nothing else holds yet: any failure
        closes its socket, and a lost transport surfaces as its cause."""
        try:
            return self._unwrap(self._transport(link, header, b""))
        except BaseException as exc:
            _hang_up(link.sock)
            if isinstance(exc, _TransportLost):
                raise exc.cause from None
            raise

    def _connect_any(self, start: int) -> _Link:
        """Dial endpoints round-robin from ``start``; first success wins."""
        last: Optional[Exception] = None
        for offset in range(len(self.endpoints)):
            index = (start + offset) % len(self.endpoints)
            try:
                return self._connect(index)
            except (ProtocolError, OSError) as exc:
                last = exc
        raise FailoverError(
            f"no reachable server among "
            f"{[f'{h}:{p}' for h, p in self.endpoints]}: {last}"
        )

    def _drop(self, role: str) -> None:
        """Close and forget one link (``_read`` or ``_write``)."""
        link: Optional[_Link] = getattr(self, role)
        setattr(self, role, None)
        if link is not None:
            self.counters["failovers"] += 1
            _hang_up(link.sock)
            # the two roles may share one link (they never do in replica-set
            # mode, but be safe): a dead socket must not linger under the
            # other name
            for other in ("_read", "_write"):
                if other != role and getattr(self, other) is link:
                    setattr(self, other, None)

    # -- the wire ------------------------------------------------------------

    def _transport(
        self, link: _Link, header: Dict[str, object], body: bytes
    ) -> PyTuple[Dict[str, object], bytes]:
        """One raw round trip; socket-layer failures raise
        :class:`_TransportLost` so callers can tell them from server-
        reported errors (which must never be retried)."""
        try:
            write_frame(link.sock, header, body)
            frame = read_frame(link.sock)
        except FrameTimeout as exc:
            raise _TransportLost(
                ProtocolError("timed out waiting for the server's response")
            ) from exc
        except (ProtocolError, OSError) as exc:
            raise _TransportLost(exc) from exc
        if frame is None:
            raise _TransportLost(
                ProtocolError("server closed the connection mid-conversation"),
                closed=True,
            )
        return frame

    @staticmethod
    def _unwrap(
        frame: PyTuple[Dict[str, object], bytes]
    ) -> PyTuple[Dict[str, object], bytes]:
        """Raise a server-reported error as its original class."""
        if not frame[0].get("ok"):
            raise error_from_response(frame[0])
        return frame

    def _request(
        self,
        header: Dict[str, object],
        body: bytes = b"",
        write: bool = False,
    ) -> PyTuple[_Link, PyTuple[Dict[str, object], bytes]]:
        """One request with routing and (in replica-set mode) retries.

        Returns the link it ran on — cursors returned in the response are
        bound to that link's generation.
        """
        if self._closed:
            raise ProtocolError("remote session is closed")
        with self._lock:
            if not self.replica_set:
                link = self._read
                delay = self.backoff
                for attempt in range(self.restart_retries + 1):
                    try:
                        frame = self._transport(link, header, body)
                    except _TransportLost as exc:
                        if exc.closed:
                            self._closed = True
                        raise exc.cause from None
                    try:
                        return link, self._unwrap(frame)
                    except WorkerRestartingError:
                        # the shard owning this request is mid-restart; the
                        # connection (to the router) is healthy, so the same
                        # request re-sent after a pause will land on the
                        # restarted worker.  ReadOnlyError and FailoverError
                        # deliberately do NOT take this path: re-sending
                        # cannot fix a role mismatch or a dead cursor.
                        if attempt >= self.restart_retries:
                            raise
                        self.counters["retries"] += 1
                        time.sleep(random.uniform(delay * 0.5, delay))
                        delay = min(self.backoff_cap, delay * 2)
                raise ProtocolError("unreachable: retry loop exhausted")
            return self._request_failover(header, body, write)

    def _request_failover(
        self, header: Dict[str, object], body: bytes, write: bool
    ) -> PyTuple[_Link, PyTuple[Dict[str, object], bytes]]:
        role = "_write" if write else "_read"
        budget = self.retries * len(self.endpoints)
        delay = self.backoff
        last: Optional[Exception] = None
        for attempt in range(budget):
            if attempt:
                self.counters["retries"] += 1
                # full jitter on the capped exponential: a herd of clients
                # must not hammer a recovering server in lockstep
                time.sleep(random.uniform(0.0, delay))
                delay = min(self.backoff_cap, delay * 2)
            link: Optional[_Link] = getattr(self, role)
            try:
                if link is None:
                    start = self._start_index(role, attempt)
                    link = self._connect_any(start)
                    if attempt:
                        self.counters["reconnects"] += 1
                    setattr(self, role, link)
                frame = self._transport(link, header, body)
            except _TransportLost as exc:
                self._drop(role)
                last = exc.cause
                continue
            except FailoverError as exc:
                last = exc
                continue
            try:
                return link, self._unwrap(frame)
            except WorkerRestartingError as exc:
                # a shard behind the endpoint is rebooting: the link itself
                # is healthy, so keep it and retry after the backoff —
                # dropping it would misread a worker restart as a failover
                last = exc
                continue
            except ReadOnlyError as exc:
                if not write:
                    raise
                # this endpoint is a replica: remember that, try the next
                # one as the primary candidate
                last = exc
                if self._primary_index == link.index:
                    self._primary_index = None
                self._drop(role)
                self._bump_primary_guess(link.index)
        raise FailoverError(
            f"{header.get('op', 'request')} failed after {budget} attempts "
            f"across {[f'{h}:{p}' for h, p in self.endpoints]}: {last}"
        )

    def _start_index(self, role: str, attempt: int) -> int:
        """Where a reconnect starts probing: writes at the believed primary,
        reads wherever the rotation left off."""
        if role == "_write" and self._primary_index is not None:
            return self._primary_index
        if role == "_write" and self._write_guess is not None:
            return self._write_guess
        return attempt % len(self.endpoints)

    _write_guess: Optional[int] = None

    def _bump_primary_guess(self, failed_index: int) -> None:
        self._write_guess = (failed_index + 1) % len(self.endpoints)

    def _cursor_request(
        self, link: _Link, generation: int, header: Dict[str, object]
    ) -> PyTuple[Dict[str, object], bytes]:
        """FETCH/CLOSE_CURSOR: pinned to the link (and generation) whose
        server holds the cursor — a cursor cannot fail over, so a lost
        connection surfaces :class:`FailoverError` instead of retrying."""
        if self._closed:
            raise ProtocolError("remote session is closed")
        with self._lock:
            if not self.replica_set:
                try:
                    frame = self._transport(link, header, b"")
                except _TransportLost as exc:
                    if exc.closed:
                        self._closed = True
                    raise exc.cause from None
                return self._unwrap(frame)
            if link.generation != generation or (
                link is not self._read and link is not self._write
            ):
                raise FailoverError(
                    f"cursor {header.get('cursor')} was lost: its connection "
                    f"failed over (reissue the query)"
                )
            try:
                frame = self._transport(link, header, b"")
            except _TransportLost as exc:
                for role in ("_read", "_write"):
                    if getattr(self, role) is link:
                        self._drop(role)
                raise FailoverError(
                    f"cursor {header.get('cursor')} was lost mid-stream: "
                    f"{exc.cause} (reissue the query)"
                ) from exc.cause
            return self._unwrap(frame)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        if self.replica_set:
            eps = ",".join(f"{h}:{p}" for h, p in self.endpoints)
            return f"<RemoteSession replica-set [{eps}] {state}>"
        return f"<RemoteSession {self.address[0]}:{self.address[1]} {state}>"
