"""Exception hierarchy for the CORAL reproduction.

Every error raised by the library derives from :class:`CoralError`, so host
applications embedding the system (Section 6 of the paper) can catch a single
base class.  Subclasses mirror the major subsystems: the language front end,
the rewriting/optimization stage, run-time evaluation, and the storage
manager.
"""

from __future__ import annotations


class CoralError(Exception):
    """Base class for all errors raised by the CORAL reproduction."""


class ParseError(CoralError):
    """A syntax error in a declarative program or query.

    Carries the source position so interactive users (and tests) can point
    at the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class RewriteError(CoralError):
    """The optimizer could not rewrite a program for the given query form."""


class StratificationError(RewriteError):
    """A program uses negation/aggregation in a way no supported evaluation
    strategy (stratified fixpoint or Ordered Search) can order."""


class EvaluationError(CoralError):
    """A run-time failure during query evaluation (e.g. unbound arithmetic)."""


class InstantiationError(EvaluationError):
    """A builtin required a ground argument that was unbound at call time."""


class ModuleError(CoralError):
    """Misuse of the module system: unknown exports, bad query forms,
    or a recursive invocation of a ``save_module`` module (Section 5.4.2)."""


class StorageError(CoralError):
    """A failure inside the page-based storage manager (the EXODUS stand-in).

    Every OS-level I/O failure (``OSError``: disk full, failed fsync, a
    vanished file) is wrapped as a ``StorageError`` with the original as
    ``__cause__``, so embedders never see raw ``OSError`` escape the storage
    layer.  Corruption detected by the undo journal's checksums also raises
    this class — recovery halts rather than applying garbage."""


class SessionClosedError(StorageError):
    """A query or update touched persistent storage after the owning
    :class:`~repro.api.session.Session` (or its storage server) was closed.

    Before this class existed, the dead storage stack silently re-opened
    page files on demand — a closed session could keep reading and writing
    disk pages nobody would ever flush.  A subclass of
    :class:`StorageError` so existing ``except StorageError`` handlers keep
    working.  In-memory relations remain usable after ``close()``."""


class TransactionError(StorageError):
    """Misuse of the transaction protocol: beginning a transaction while one
    is in progress (CORAL is single-user, Section 2), or committing/aborting
    with none active.  A subclass of :class:`StorageError` so existing
    ``except StorageError`` handlers keep working."""


class ResourceLimitError(CoralError):
    """A query exceeded its :class:`~repro.eval.limits.ResourceLimits` —
    wall-clock timeout, maximum derived tuples, or cooperative cancellation.

    Raised from inside the fixpoint / pipelined loops (checked at least once
    per iteration), leaving the session usable for subsequent queries: the
    partially evaluated module instance is discarded exactly as for any
    other abandoned cursor (Section 5.4.3)."""


class ExtensibilityError(CoralError):
    """Invalid registration of a user-defined type, relation, or index."""


class ProtocolError(CoralError):
    """A failure at the client-server wire boundary (:mod:`repro.server` /
    :mod:`repro.client`): a malformed or oversized frame, a codec version
    mismatch, an unknown request, or a connection that died mid-stream.

    Raised on the client when the server becomes unreachable (so a dropped
    connection surfaces as one clean exception rather than a raw
    ``OSError``), and on the server when a client speaks garbage — in which
    case only that connection is dropped; the server keeps serving."""


class SubscriptionError(CoralError):
    """A live query (:mod:`repro.live`) could not be registered, or a
    delivered subscription is no longer serviceable.

    Raised at SUBSCRIBE time when the goal's ``maintain`` verdict is a
    refusal (the same verdict that makes a memo entry evict-on-update;
    docs/INTERNALS.md, "Capabilities", has the table), or the goal is a
    builtin; the message names the obstruction.  Also raised when polling a
    subscription that the server has closed (module unloaded, redefined
    predicate)."""


class ReadOnlyError(CoralError):
    """A write (INSERT/DELETE/CONSULT) was sent to a read-only replica
    (:mod:`repro.replication`).  Writes go to the primary; a failover-aware
    :class:`~repro.client.RemoteSession` reacts to this error by re-resolving
    which endpoint is currently primary (a ``PROMOTE`` may have moved it)."""


class FailoverError(ProtocolError):
    """A replica-set :class:`~repro.client.RemoteSession` exhausted its
    retry budget, or an in-flight cursor's connection died.

    Server-side cursors live on one server; when that connection is lost the
    cursor cannot be resumed elsewhere, so the in-flight result surfaces
    this typed error (rather than a raw socket error) and the caller re-runs
    the query — which *is* transparently routed to a live replica.  A
    subclass of :class:`ProtocolError` so existing transport-error handlers
    keep working."""


class WorkerRestartingError(CoralError):
    """A sharded router (:mod:`repro.sharding`) could not reach the worker
    that owns the requested data because that worker is down and being
    restarted by its supervisor.

    Deliberately *retriable*: the data still exists (or the write is still
    safe to re-send — routing is deterministic and the worker had not
    acknowledged it), so a client that waits a moment and re-sends the same
    request will normally succeed against the restarted worker.
    :class:`~repro.client.RemoteSession` does this automatically with a
    bounded backoff budget.  Distinct from :class:`ReadOnlyError` (the
    request went to the wrong *role* — re-route, don't retry) and from
    :class:`FailoverError` (an in-flight cursor died — re-issue the query,
    retrying the FETCH cannot help).  Not a :class:`ProtocolError` subclass:
    the wire conversation itself is healthy."""


class ShardRoutingError(CoralError):
    """A request could not be mapped onto the shard layout
    (:mod:`repro.sharding`): a consult that would straddle workers whose
    contents are already pinned apart, a module definition for a
    partitioned predicate, or a malformed shard-map entry.  Not retriable —
    the *placement* is wrong, and the fix is a shard-map change (see
    docs/SHARDING.md)."""
