"""The shard router: one TCP front speaking the unmodified wire protocol,
N workers behind it.

The front itself — accept loop, framed reads, the HELLO/BYE/draining gate,
request accounting, error mapping, lifecycle — is the same
:class:`repro.server.transport.FrameServer` a :class:`~repro.server.
CoralServer` is built on; this module is only the op table whose ops
*forward*, plus the upstream links and scatter-gather cursors that needs.

Clients — :class:`~repro.client.RemoteSession`, the shell, scripts — dial
the router exactly as they would a :class:`~repro.server.CoralServer`; the
protocol module, frame layout, and every op are unchanged.  Behind the
socket the router owns no database at all: it parses just enough of each
request to decide *ownership* (which worker holds the module or predicate,
per :class:`~repro.sharding.hashring.ShardMap`) and forwards the request
verbatim, relaying the response.

Cursors keep the get-next-tuple discipline across the extra hop:

* a **proxy cursor** (single-shard query) maps one router-issued cursor id
  to one worker-side cursor; the QUERY's first batch and every FETCH body
  are relayed as opaque bytes — the router never decodes a single-shard
  batch — and a query answered in its first batch leaves no cursor at all;
* a **gather cursor** (a query on a partitioned relation) opens one cursor
  per worker and concatenates their streams.  Each worker's QUERY answers
  with one client batch, which the router buffers; a client FETCH takes
  buffered rows first and asks a worker for *at most the client's
  remaining budget*, so backpressure propagates: a shard runs at most one
  client batch ahead of what the client consumed, a client that stops
  fetching stops work on every shard, and a gather batch is never empty
  unless it is ``done`` (an empty non-final batch would end the client's
  iteration early).

Upstream connections are **per client connection**, created lazily: when
the client disconnects — cleanly or by dying — the router closes its
upstream sockets, and each worker's own disconnect handling frees the
cursors (the PR-3 reclamation path, now transitive).

Failure semantics (the docs/SHARDING.md failure matrix):

* worker down before a request → :class:`~repro.errors.WorkerRestartingError`
  (retriable; the supervisor is already restarting it);
* worker dies mid-cursor → :class:`~repro.errors.FailoverError` (the cursor
  state died with the process; re-issue the query);
* placement contradictions → :class:`~repro.errors.ShardRoutingError`;
* REPL_HELLO/PROMOTE at the router → :class:`~repro.errors.ProtocolError`:
  replication composes *per worker* (each worker may be the primary of its
  own replica chain), not at the router.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Dict, List, Optional, Tuple as PyTuple, Union

from ..errors import (
    CoralError,
    FailoverError,
    ProtocolError,
    ShardRoutingError,
    WorkerRestartingError,
)
from ..faults import FaultInjector
from ..language import parse_program, parse_query
from ..obs.disttrace import SpanBuffer, TraceContext
from ..server.protocol import PeerLost, dial, roundtrip
from ..server.transport import DEFAULT_BATCH, Connection, FrameServer
from ..storage.serde import decode_batch, encode_batch
from ..terms import to_arg
from .hashring import ShardMap, partition_key
from .pool import WorkerPool

#: socket timeout, in seconds, on every router→worker link
UPSTREAM_TIMEOUT = 30.0


class _Upstream:
    """One router→worker connection, owned by one client connection."""

    __slots__ = ("sock", "index", "generation")

    def __init__(self, sock: socket.socket, index: int, generation: int) -> None:
        self.sock = sock
        self.index = index
        self.generation = generation


class _Part:
    """One worker-side cursor behind a router cursor, plus the answers its
    worker already sent that the client has not been given yet (the inline
    batch of the worker's QUERY response)."""

    __slots__ = ("upstream", "remote_id", "rows", "done")

    def __init__(
        self, upstream: _Upstream, remote_id: int, done: bool = False
    ) -> None:
        self.upstream = upstream
        self.remote_id = remote_id
        self.rows: List[list] = []
        #: the worker sent its last batch and closed its cursor
        self.done = done


class _Cursor:
    """A router cursor over one worker cursor per shard it spans: a single
    part with nothing buffered is a *proxy* (batches are relayed as opaque
    bytes); anything else is a *gather* (the shards' streams, buffered rows
    first, are concatenated).  ``cursor_id`` is None until it is minted."""

    __slots__ = ("cursor_id", "parts", "current")

    def __init__(self, parts: List[_Part]) -> None:
        self.cursor_id: Optional[int] = None
        self.parts = parts
        self.current = 0  # index of the part FETCH is draining


class _RouterConn(Connection):
    """The transport's connection record plus this client's upstream
    links (its cursors are :class:`_Cursor`)."""

    __slots__ = ("links",)

    def __init__(self, conn_id: int, peer: str, sock) -> None:
        super().__init__(conn_id, peer, sock)
        self.links: Dict[int, _Upstream] = {}


class ShardRouter(FrameServer):
    """The multi-process front: route, scatter, gather, aggregate.

    ::

        pool = WorkerPool(4, data_dir="/var/coral").start()
        router = ShardRouter(pool, port=4242, shard_map="shards.map")
        router.start()
        ... RemoteSession against router.address, unchanged ...
        router.shutdown(); pool.stop()

    The pool's lifecycle belongs to the caller (tests hand in a static
    pool over in-process servers); the router only *uses* it.
    """

    metric_prefix = "router"
    role = "router"
    connection_class = _RouterConn

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shard_map: Union[None, str, Dict[str, object], ShardMap] = None,
        batch_size: int = DEFAULT_BATCH,
        faults: Optional[FaultInjector] = None,
        telemetry_port: Optional[int] = None,
        telemetry_host: str = "127.0.0.1",
        io_timeout: Optional[float] = 30.0,
        idle_timeout: Optional[float] = 300.0,
        trace_sample: float = 0.0,
        span_dir: Optional[str] = None,
        process_name: Optional[str] = None,
        span_limit: int = 20_000,
    ) -> None:
        self.pool = pool
        self.shard_map = ShardMap.load(shard_map, pool.count)
        # the transport parses the optional wire ``trace`` field and records
        # the request span; the router adds per-worker forwarding-leg spans
        # and stamps a child context on every upstream hop so worker spans
        # nest under the fan-out legs (see _forward)
        super().__init__(
            host,
            port,
            faults=faults,
            io_timeout=io_timeout,
            idle_timeout=idle_timeout,
            trace_sample=trace_sample,
            span_dir=span_dir,
            process_name=process_name or f"router-{os.getpid()}",
            span_limit=span_limit,
            telemetry_port=telemetry_port,
            telemetry_host=telemetry_host,
            telemetry_extra={"snapshots": self._worker_snapshots},
        )
        self.batch_size = batch_size
        #: predicate/module → worker placements learned from consults; a
        #: name, once placed, stays put (first-wins) so later programs and
        #: queries find their data
        self._learned: Dict[str, int] = {}
        self._learned_lock = threading.Lock()

        m = self.metrics
        self._m_upstream = m.counter(
            "router.upstream.requests", "requests forwarded per worker",
            ("worker",),
        )
        self._m_scatter = m.counter(
            "router.scatter.queries", "queries fanned out to every shard"
        )
        self._m_workers_up = m.gauge("router.workers.up", "workers currently up")
        self._m_restarts = m.counter(
            "router.worker.restarts", "worker restarts observed", ("worker",)
        )
        self._restart_seen: Dict[int, int] = {}

    # -- what the transport asks ---------------------------------------------

    def _hello(self) -> Dict[str, object]:
        return dict(super()._hello(), workers=self.pool.count)

    def _health(self) -> PyTuple[bool, str]:
        verdict = super()._health()
        if not verdict[0]:
            return verdict
        up = sum(1 for h in self.pool.workers if h.state == "up")
        self._m_workers_up.set(up)
        if up == 0:
            return False, f"degraded: 0 of {self.pool.count} workers up"
        if up < self.pool.count:
            return True, f"serving (router, {up}/{self.pool.count} workers up)"
        return True, f"serving (router, {up} workers)"

    def _worker_snapshots(self):
        """Cached per-worker metric registries for /metrics, each labelled
        ``worker="N"`` — the pool's monitor refreshes them every heartbeat,
        so a scrape never blocks on a dead worker."""
        out = []
        for handle in self.pool.workers:
            stats = handle.last_stats
            if isinstance(stats, dict) and isinstance(
                stats.get("metrics"), dict
            ):
                out.append(({"worker": str(handle.index)}, stats["metrics"]))
        return out

    def _worker_spans(self, conn: _RouterConn, trace_id: str) -> List[dict]:
        """Every reachable worker's TRACE answer for one trace id — the
        cluster-wide half of the TRACE op.  Unreachable or refusing workers
        are skipped: a partial trace is the contract, not an error."""
        spans: List[dict] = []
        for index in range(self.pool.count):
            try:
                upstream = self._upstream(conn, index)
            except WorkerRestartingError:
                continue
            try:
                response, _ = self._forward(
                    upstream, {"op": "TRACE", "id": trace_id}
                )
                spans.extend(response.get("spans", []))
            except PeerLost:
                self._drop_upstream(conn, upstream)
            except CoralError:
                pass
        return spans

    def _release(self, conn: _RouterConn) -> None:
        """Drop every upstream link this client held.  Closing the sockets
        is the reclamation signal: each worker's own disconnect handling
        frees the cursors the router had opened there — abandoning a
        scatter-gather frees state on *every* shard."""
        closed = len(conn.cursors)
        conn.cursors.clear()
        for upstream in list(conn.links.values()):
            self._drop_upstream(conn, upstream)
        if closed:
            self._count_cursors_closed(closed)

    # -- upstream links ------------------------------------------------------

    def _upstream(self, conn: _RouterConn, index: int) -> _Upstream:
        """The client connection's link to worker ``index``, dialing (or
        re-dialing after a restart) as needed."""
        generation = self.pool.generation_of(index)
        upstream = conn.links.get(index)
        if upstream is not None:
            if upstream.generation == generation:
                return upstream
            # the worker restarted since this link was dialed: the socket
            # is dead (or soon will be) and its cursors are gone
            self._drop_upstream(conn, upstream)
        address = self.pool.address_of(index)  # raises WorkerRestartingError
        try:
            sock = dial(address, UPSTREAM_TIMEOUT, "repro.sharding/1")
        except CoralError as exc:
            raise WorkerRestartingError(
                f"worker {index} at {address[0]}:{address[1]} is not "
                f"answering ({exc}); retry shortly"
            ) from exc
        upstream = _Upstream(sock, index, generation)
        conn.links[index] = upstream
        return upstream

    def _forward(
        self, upstream: _Upstream, header, body: bytes = b""
    ) -> PyTuple[Dict[str, object], bytes]:
        """One round trip to a worker.  A socket failure raises
        :class:`~repro.server.protocol.PeerLost` (never a client-visible
        error directly — the caller decides between retriable and
        cursor-fatal); a refusal re-raises under the worker's own error
        class, so the transport relays it to the client intact.

        When the request being served is traced, every forwarding leg gets
        its own child context stamped on the upstream header and its own
        span — a scatter-gather fan-out shows up as one leg per worker,
        with the worker's spans nested under its leg."""
        self._m_upstream.inc(1, str(upstream.index))
        ctx = self._current_trace()
        leg: Optional[TraceContext] = None
        started = 0.0
        if ctx is not None and ctx.sampled:
            leg = ctx.child()
            header = dict(header)
            header["trace"] = leg.to_wire()
            started = SpanBuffer.now()
        lost = False
        try:
            return roundtrip(upstream.sock, header, body)
        except PeerLost:
            lost = True
            raise
        finally:
            self._record_leg(leg, header, started, upstream, lost)

    def _record_leg(
        self,
        leg: Optional[TraceContext],
        header,
        started: float,
        upstream: _Upstream,
        lost: bool,
    ) -> None:
        if leg is None:
            return
        extra: Dict[str, object] = {"worker": upstream.index}
        if lost:
            extra["lost"] = True
        self.spans.record(
            leg,
            f"router.forward.{header.get('op', '?')}",
            started,
            SpanBuffer.now(),
            **extra,
        )

    def _drop_upstream(self, conn: _RouterConn, upstream: _Upstream) -> None:
        try:
            upstream.sock.close()
        except OSError:
            pass
        if conn.links.get(upstream.index) is upstream:
            del conn.links[upstream.index]

    def _ask(
        self,
        conn: _RouterConn,
        index: int,
        header,
        died: str,
        advice: str = "retry shortly",
    ) -> PyTuple[_Upstream, Dict[str, object], bytes]:
        """One request to worker ``index`` over this client's link, where
        losing the worker is *retriable*: the link is dropped and the
        client told to come back (``died`` says when it happened, ``advice``
        what to do about it).  Refusals propagate under their own class."""
        upstream = self._upstream(conn, index)
        try:
            response, body = self._forward(upstream, header)
        except PeerLost as exc:
            self._drop_upstream(conn, upstream)
            raise WorkerRestartingError(
                f"worker {index} died {died} ({exc}); {advice}"
            ) from exc
        return upstream, response, body

    def _close_part(self, conn: _RouterConn, part: _Part) -> None:
        """Free one worker-side cursor, best effort."""
        if part.done or conn.links.get(part.upstream.index) is not part.upstream:
            # the worker closed it with its last batch, or that upstream
            # is already gone and its cursors with it
            return
        try:
            self._forward(
                part.upstream, {"op": "CLOSE_CURSOR", "cursor": part.remote_id}
            )
        except PeerLost:
            # the worker died; its cursors died with it — done either way
            self._drop_upstream(conn, part.upstream)
        except CoralError:
            pass  # refused: the worker holds nothing we could still free

    # -- routing -------------------------------------------------------------

    def _route_name(self, name: str) -> Optional[int]:
        """The worker owning ``name``; None means partitioned (scatter)."""
        if self.shard_map.is_partitioned(name):
            return None
        with self._learned_lock:
            learned = self._learned.get(name)
        if learned is not None:
            return learned
        return self.shard_map.owner(name)

    def _learn(self, names, index: int) -> None:
        """Pin ``names`` to ``index`` (first placement wins)."""
        with self._learned_lock:
            for name in names:
                self._learned.setdefault(name, index)

    def learned_pins(self) -> Dict[str, int]:
        with self._learned_lock:
            return dict(self._learned)

    # -- request dispatch ----------------------------------------------------

    def _dispatch(
        self, conn: _RouterConn, op: str, header, body
    ) -> PyTuple[Dict[str, object], bytes, bool]:
        if op == "QUERY":
            return self._op_query(conn, header) + (True,)
        if op == "FETCH":
            return self._op_fetch(conn, header) + (True,)
        if op == "CONSULT":
            return self._op_consult(conn, header), b"", True
        if op in ("INSERT", "DELETE"):
            return self._op_update(conn, op, header), b"", True
        if op == "TRACE":
            gathered = self._worker_spans(conn, str(header.get("id", "")))
            return self._op_trace(header, gathered), b"", True
        if op in ("REPL_HELLO", "PROMOTE", "WORKER_HELLO"):
            raise ProtocolError(
                f"{op} is not served by a shard router: replication and "
                f"worker supervision compose per worker — address the "
                f"worker directly (see docs/SHARDING.md)"
            )
        return super()._dispatch(conn, op, header, body)

    # -- cursors -------------------------------------------------------------

    def _mint_cursor(self, conn: _RouterConn, cursor: _Cursor) -> int:
        """Register ``cursor`` on the client connection under a fresh id."""
        cursor.cursor_id = self._count_cursor_opened()
        conn.cursors[cursor.cursor_id] = cursor
        return cursor.cursor_id

    def _retire_cursor(self, conn: _RouterConn, cursor: _Cursor) -> None:
        if conn.cursors.pop(cursor.cursor_id, None) is not None:
            self._count_cursors_closed()

    def _abandon(self, conn: _RouterConn, cursor: _Cursor) -> None:
        """Free a cursor's undrained worker cursors (on CLOSE_CURSOR, or
        after a failure mid-stream) and retire it."""
        for part in cursor.parts[cursor.current :]:
            self._close_part(conn, part)
        self._retire_cursor(conn, cursor)

    def _close_cursor(self, conn: _RouterConn, cursor_id: int) -> bool:
        cursor = conn.cursors.get(cursor_id)
        if cursor is None:
            return False
        self._abandon(conn, cursor)
        return True

    def _open_parts(
        self, conn: _RouterConn, pred: str, text: str, limit: int
    ) -> PyTuple[List[_Part], List[PyTuple[Dict[str, object], bytes]]]:
        """QUERY every worker ``pred`` lives on (its owner, or all of them
        when it is partitioned) for a first batch of ``limit``: one part per
        worker, plus each worker's response frame."""
        owner = self._route_name(pred)
        if owner is None:
            self._m_scatter.inc()
            targets = range(self.pool.count)
        else:
            targets = [owner]
        parts: List[_Part] = []
        frames: List[PyTuple[Dict[str, object], bytes]] = []
        request = {"op": "QUERY", "query": text, "max": limit}
        try:
            for index in targets:
                upstream, response, body = self._ask(
                    conn, index, request, "while opening a cursor"
                )
                parts.append(
                    _Part(
                        upstream,
                        response.get("cursor"),
                        bool(response.get("done")),
                    )
                )
                frames.append((response, body))
        except CoralError:
            # a partial scatter must not leak cursors on the shards that
            # did answer
            for part in parts:
                self._close_part(conn, part)
            raise
        return parts, frames

    @staticmethod
    def _buffer(parts: List[_Part], frames) -> _Cursor:
        """A cursor whose parts hold their workers' first batches."""
        for part, (_, body) in zip(parts, frames):
            part.rows = decode_batch(body)
        return _Cursor(parts)

    def _op_query(
        self, conn: _RouterConn, header
    ) -> PyTuple[Dict[str, object], bytes]:
        """Open the query on its worker(s) and answer with the first batch.

        One owner: the worker's batch is relayed untouched, and a router
        cursor is minted only if more answers follow — one round trip per
        hop.  Scatter: each worker answers one client batch, the response
        is filled from those batches in shard order, and the rest stays
        buffered for FETCH — so a shard runs at most one client batch
        ahead of what the client consumed."""
        text = str(header.get("query", ""))
        limit = self._batch_limit("QUERY", header)
        literal = parse_query(text).literal
        parts, frames = self._open_parts(conn, literal.pred, text, limit)
        meta = frames[0][0]
        if len(parts) == 1:
            cursor = _Cursor(parts)
            response = {"count": meta.get("count", 0), "done": parts[0].done}
            body = frames[0][1]
        else:
            cursor = self._buffer(parts, frames)
            response, body = self._gather(conn, cursor, limit)
        if not response["done"]:
            self._mint_cursor(conn, cursor)
        response.update(
            ok=True,
            cursor=cursor.cursor_id,
            vars=meta.get("vars", []),
            arity=meta.get("arity", 0),
        )
        return response, body

    def _consult_queries(self, conn: _RouterConn, queries) -> List[dict]:
        """Open a pure query batch's queries, each routed on its own
        predicate.  A consult's cursors start empty, so every worker's
        first batch waits in its part for the client's first FETCH."""
        opened = []
        for query in queries:
            literal = query.literal
            parts, frames = self._open_parts(
                conn, literal.pred, str(literal), self.batch_size
            )
            cursor = self._buffer(parts, frames)
            opened.append(
                {
                    "cursor": self._mint_cursor(conn, cursor),
                    "vars": frames[0][0].get("vars", []),
                    "arity": frames[0][0].get("arity", 0),
                }
            )
        return opened

    def _op_fetch(
        self, conn: _RouterConn, header
    ) -> PyTuple[Dict[str, object], bytes]:
        cursor_id = int(header.get("cursor", -1))
        cursor = conn.cursors.get(cursor_id)
        if cursor is None:
            raise ProtocolError(f"unknown cursor {cursor_id}")
        limit = self._batch_limit("FETCH", header)
        part = cursor.parts[0]
        if len(cursor.parts) == 1 and not part.rows and not part.done:
            # a proxy: the batch bytes are relayed untouched
            response, body = self._pull(conn, cursor, part, limit)
            if part.done:
                self._retire_cursor(conn, cursor)
            response = {"count": response.get("count", 0), "done": part.done}
        else:
            response, body = self._gather(conn, cursor, limit)
        response.update(ok=True, cursor=cursor_id)
        return response, body

    def _pull(
        self, conn: _RouterConn, cursor: _Cursor, part: _Part, limit: int
    ) -> PyTuple[Dict[str, object], bytes]:
        """FETCH up to ``limit`` answers from one part's worker.  Losing the
        worker is fatal to the cursor (its state died with the process):
        the cursor is abandoned and the client told to reissue."""
        try:
            response, body = self._forward(
                part.upstream,
                {"op": "FETCH", "cursor": part.remote_id, "max": limit},
            )
        except PeerLost as exc:
            self._drop_upstream(conn, part.upstream)
            self._abandon(conn, cursor)
            raise FailoverError(
                f"cursor {cursor.cursor_id} was lost: worker "
                f"{part.upstream.index} died mid-stream ({exc}) — "
                f"reissue the query"
            ) from exc
        except CoralError:
            part.done = True  # the worker freed it before refusing
            self._abandon(conn, cursor)
            raise
        part.done = bool(response.get("done"))
        return response, body

    def _gather(
        self, conn: _RouterConn, cursor: _Cursor, limit: int
    ) -> PyTuple[Dict[str, object], bytes]:
        """Fill one client batch from the concatenated shard streams: a
        part's buffered rows first, then its worker, asked for at most the
        *remaining* client budget.  The loop only exits with rows, or with
        every part drained — a gather batch is never empty-but-not-done
        (the client would mistake it for end-of-stream)."""
        rows: List[list] = []
        while len(rows) < limit and cursor.current < len(cursor.parts):
            part = cursor.parts[cursor.current]
            need = limit - len(rows)
            if not part.rows and not part.done:
                _, body = self._pull(conn, cursor, part, need)
                part.rows = decode_batch(body)
                if not part.rows and not part.done:
                    # a worker must not answer empty-and-not-done; treat it
                    # as a wedged stream rather than spinning here forever
                    self._abandon(conn, cursor)
                    raise ProtocolError(
                        f"worker {part.upstream.index} answered an empty "
                        f"non-final batch for cursor {part.remote_id}"
                    )
            rows.extend(part.rows[:need])
            del part.rows[:need]
            if part.done and not part.rows:
                cursor.current += 1
        done = cursor.current >= len(cursor.parts)
        if done:
            self._retire_cursor(conn, cursor)
        return {"count": len(rows), "done": done}, encode_batch(rows)

    # -- consults and updates ------------------------------------------------

    def _op_consult(self, conn: _RouterConn, header) -> Dict[str, object]:
        source = str(header.get("source", ""))
        program = parse_program(source)
        if any(c.name == "consult" for c in program.commands):
            raise ProtocolError("remote consult may not read server-side files")
        partitioned_facts = [
            fact
            for fact in program.facts
            if self.shard_map.is_partitioned(fact.head.pred)
        ]
        plain_facts = [
            fact
            for fact in program.facts
            if not self.shard_map.is_partitioned(fact.head.pred)
        ]
        for module in program.modules:
            bad = [
                pred
                for pred, _arity in module.defined_predicates()
                if self.shard_map.is_partitioned(pred)
            ]
            if bad:
                raise ShardRoutingError(
                    f"module {module.name!r} defines partitioned "
                    f"predicate(s) {bad}: a partitioned relation is base "
                    f"facts only, spread across every worker — rules for "
                    f"it would need to see all shards at once"
                )
            referenced = sorted(
                {
                    literal.pred
                    for rule in module.rules
                    for literal in rule.body
                    if self.shard_map.is_partitioned(literal.pred)
                }
            )
            if referenced:
                # the module would land on ONE worker and silently see one
                # shard's slice of the relation: partial answers, no error
                # — refuse loudly instead
                raise ShardRoutingError(
                    f"module {module.name!r} reads partitioned relation(s) "
                    f"{referenced}: a module evaluates on a single worker "
                    f"and would only see that shard's facts — pin the "
                    f"relation to a worker instead of partitioning it"
                )
        if partitioned_facts:
            if program.modules or plain_facts or program.queries or (
                program.index_annotations
            ):
                raise ShardRoutingError(
                    "a consult carrying facts for a partitioned relation "
                    "must carry only such facts (they are split across "
                    "every worker; modules, other facts, and queries "
                    "cannot ride along) — consult them separately"
                )
            return self._consult_partitioned(conn, partitioned_facts)
        if not program.modules and not plain_facts and (
            not program.index_annotations
        ):
            return {
                "ok": True,
                "cursors": self._consult_queries(conn, program.queries),
            }
        return self._consult_single_owner(conn, source, program)

    def _consult_partitioned(
        self, conn: _RouterConn, facts
    ) -> Dict[str, object]:
        """Split a batch of partitioned facts by tuple hash and forward
        each worker its slice — the bulk-load path for spread relations."""
        slices: Dict[int, List[str]] = {}
        for fact in facts:
            head = fact.head
            index = self.shard_map.tuple_owner(
                head.pred, partition_key(head.args)
            )
            slices.setdefault(index, []).append(str(fact))
        for index, lines in sorted(slices.items()):
            self._ask(
                conn, index, {"op": "CONSULT", "source": "\n".join(lines)},
                "mid-consult",
                "the batch was partially loaded — retry the consult "
                "(facts are idempotent)",
            )
        return {"ok": True, "cursors": []}

    def _consult_single_owner(
        self, conn: _RouterConn, source: str, program
    ) -> Dict[str, object]:
        """Place a whole program text on one worker, verbatim.

        Module text must not be re-rendered (``ModuleDecl.__str__`` drops
        aggregate selections, index annotations, and flags), so anything
        that is not a pure query batch or a partitioned-fact batch travels
        untouched — which also means it must land on exactly one worker.
        The owner is forced by any name in the program that already has a
        placement; contradictions are a :class:`ShardRoutingError`.
        """
        names: List[str] = []
        for module in program.modules:
            names.append(module.name)
            names.extend(pred for pred, _arity in module.defined_predicates())
            names.extend(export.pred for export in module.exports)
        for fact in program.facts:
            names.append(fact.head.pred)
        required: Dict[int, List[str]] = {}
        with self._learned_lock:
            for name in names:
                placed = self._learned.get(name)
                if placed is None:
                    placed = self.shard_map.pins.get(name)
                if placed is not None:
                    required.setdefault(placed, []).append(name)
        if len(required) > 1:
            detail = "; ".join(
                f"worker {index} holds {sorted(set(held))}"
                for index, held in sorted(required.items())
            )
            raise ShardRoutingError(
                f"this program straddles shards ({detail}): its names are "
                f"already placed on different workers — split the program "
                f"or adjust the shard map"
            )
        if required:
            owner = next(iter(required))
        else:
            anchor = names[0] if names else "program"
            owner = self.shard_map.owner(anchor)
        upstream, response, _ = self._ask(
            conn, owner, {"op": "CONSULT", "source": source}, "mid-consult"
        )
        # placement is only durable once the worker accepted the program
        self._learn(names, owner)
        opened = [
            dict(
                item,
                cursor=self._mint_cursor(
                    conn, _Cursor([_Part(upstream, int(item["cursor"]))])
                ),
            )
            for item in response.get("cursors", [])
        ]
        return {"ok": True, "cursors": opened}

    def _op_update(
        self, conn: _RouterConn, op: str, header
    ) -> Dict[str, object]:
        pred = str(header.get("pred", ""))
        values = header.get("values", [])
        if not pred or not isinstance(values, list):
            raise ProtocolError("INSERT/DELETE need a pred and a values list")
        if self.shard_map.is_partitioned(pred):
            key = partition_key(to_arg(value) for value in values)
            index = self.shard_map.tuple_owner(pred, key)
        else:
            index = self._route_name(pred)
        _, response, _ = self._ask(
            conn, index, {"op": op, "pred": pred, "values": values},
            f"during {op}",
            "the write was not acknowledged — retry shortly",
        )
        if not self.shard_map.is_partitioned(pred):
            self._learn([pred], index)
        return {"ok": True, "changed": bool(response.get("changed"))}

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The router's STATS payload: the transport's stanza plus a
        ``workers`` section digesting each worker's supervision state and
        (when the worker is reachable) its own STATS — what
        ``@top``/``@workers`` render and the saturation benchmark reads."""
        # a live sweep so @top/@workers see current numbers; a down worker
        # fails fast (connection refused) and keeps its cached snapshot
        self.pool.fetch_stats(timeout=2.0)
        workers: Dict[str, Dict[str, object]] = {}
        up = 0
        for handle in self.pool.workers:
            entry = handle.describe()
            if handle.state == "up":
                up += 1
            seen = self._restart_seen.get(handle.index, 0)
            if handle.restarts > seen:
                self._m_restarts.inc(
                    handle.restarts - seen, str(handle.index)
                )
                self._restart_seen[handle.index] = handle.restarts
            stats = handle.last_stats
            if isinstance(stats, dict):
                entry["requests"] = stats.get("requests")
                entry["rates"] = stats.get("rates")
                entry["cursors"] = stats.get("cursors")
                entry["latency"] = stats.get("latency")
            workers[str(handle.index)] = entry
        self._m_workers_up.set(up)
        sharding = self.shard_map.describe()
        sharding["learned_pins"] = self.learned_pins()
        sharding["workers_up"] = up
        payload = super().stats()  # after the sweep: metrics include it
        payload["sharding"] = sharding
        payload["workers"] = workers
        return payload
