"""The session: the top-level handle a user (or the interactive shell, or an
embedding Python program) drives the system through.

Section 2: a CORAL process consults programs and data from text files into
the single-user client, then answers queries typed at the interface or
issued by host-language code.  :class:`Session` is that process state:
an evaluation context (base relations + builtins), a module manager, and
optionally a storage server for persistent relations.
"""

from __future__ import annotations

import os
import time
from itertools import repeat
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple as PyTuple,
    Union,
)

from ..errors import (
    CoralError,
    EvaluationError,
    ResourceLimitError,
    SessionClosedError,
)
from ..eval.context import EvalContext, PredKey
from ..eval.join import goal_filter
from ..eval.limits import ResourceLimits
from ..eval.memo import MemoCache, MemoPolicy
from ..language import Literal, Program, cached_query, parse_program, parse_query
from ..modules import ModuleManager
from ..optimizer import index_spec_from_annotation
from ..relations import HashRelation, Relation, Tuple
from ..storage import BufferPool, PersistentRelation, StorageServer
from ..terms import Arg, BindEnv, Trail, Var, from_arg, resolve, to_arg
from ..terms.unify import flat_constants, unify_fact
from ..extensibility import TypeRegistry


class Answer:
    """One query answer: the matched tuple plus the query variables' values,
    as a view over rows: ``values[where[name]]`` is a variable's value
    (``values`` defaults to ``args``), and the :class:`Tuple` is ``tup`` if
    the answer's cursor owned one, else built from ``args`` when first asked
    for, for this answer alone."""

    __slots__ = ("args", "_values", "_where", "_tuple")

    def __init__(
        self, args: tuple, where: Dict[str, int],
        values: Optional[tuple] = None, tup: Optional[Tuple] = None,
    ) -> None:
        #: the answer tuple's args
        self.args = args
        self._where, self._tuple = where, tup
        self._values = args if values is None else values

    @property
    def tuple(self) -> Tuple:
        if self._tuple is None:
            self._tuple = Tuple.ground(self.args)
        return self._tuple

    def __getitem__(self, name: str) -> Any:
        """The Python value bound to a query variable, by name."""
        if name not in self._where:
            raise KeyError(f"no query variable named {name}")
        return from_arg(self._values[self._where[name]])

    def term(self, name: str) -> Arg:
        """The raw term bound to a query variable."""
        return self._values[self._where[name]]

    def variables(self) -> Dict[str, Any]:
        return {name: from_arg(self._values[i]) for name, i in self._where.items()}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={self._values[i]}" for k, i in self._where.items())
        return f"Answer({inner})" if inner else f"Answer{self.tuple}"


class QueryResult:
    """A pull-based cursor over a query's answers (get-next-tuple at the
    top level, Section 5.6): iterate lazily, or call :meth:`all` /
    ``list(result)`` to materialize.

    If the owning session carries default :class:`ResourceLimits` (or
    :meth:`all` is called with ``timeout=``/``max_tuples=``), the guard is
    armed when the first answer is pulled and installed on the evaluation
    context for the duration of each pull (or of :meth:`all`'s one drain);
    exceeding it raises
    :class:`~repro.errors.ResourceLimitError` and leaves the session usable.
    """

    def __init__(
        self,
        source: Iterator[Answer],
        ctx=None,
        limits: Optional["ResourceLimits"] = None,
    ) -> None:
        self._source = source
        self._cache: List[Answer] = []
        self._done = False
        self._ctx = ctx
        self._limits = limits
        self._armed = False

    def __iter__(self) -> Iterator[Answer]:
        yield from self._cache
        while (answer := self.get_next()) is not None:
            yield answer

    def _notify_error(self, exc: CoralError) -> None:
        """Let the observer see a dying pull (an attached flight recorder
        dumps its ring for StorageError / ResourceLimitError).  Best-effort
        only: the notification must never mask the original error."""
        obs = self._ctx.obs if self._ctx is not None else None
        if obs is not None:
            try:
                obs.on_error(exc)
            except Exception:
                pass

    def get_next(self) -> Optional[Answer]:
        answer = self.pull()
        if answer is not None:
            self._cache.append(answer)
        return answer

    def pull(self) -> Optional[Answer]:
        """The next answer, not retained: :meth:`all` and iteration will
        not see it again.  For a consumer that hands each answer on once
        and must not hold a whole answer set (a server cursor ships batch
        after batch)."""
        if self._done:
            return None
        answer = self._guarded(next, self._source, None)
        if answer is None:
            self._done = True
        return answer

    def _guarded(self, take, *args):
        """``take(*args)`` under this cursor's limits, installed on the
        evaluation context for the call; a dying call is reported to the
        observer, and a limit trip ends the cursor."""
        limits, ctx = self._limits, self._ctx
        guarded = limits is not None and ctx is not None
        if guarded:
            if not self._armed:
                # the timeout clock spans the whole drain, not each pull
                limits.start(ctx.stats)
                self._armed = True
            previous, ctx.limits = ctx.limits, limits
        try:
            return take(*args)
        except CoralError as exc:
            if guarded and isinstance(exc, ResourceLimitError):
                self._done = True
            self._notify_error(exc)
            raise
        finally:
            if guarded:
                ctx.limits = previous

    def set_limits(self, limits: Optional["ResourceLimits"]) -> "QueryResult":
        """Swap in a fresh guard for subsequent pulls (re-arming the timeout
        clock).  The server uses this to bound each ``FETCH`` request
        independently; ``None`` removes the guard."""
        self._limits = limits
        self._armed = False
        return self

    def close(self) -> None:
        """Abandon the cursor (Section 5.4.3): no further answers will be
        pulled, and the underlying evaluation generator is closed so its
        relation cursors release immediately.  Idempotent; already-cached
        answers stay readable via :meth:`all`."""
        if not self._done:
            self._done = True
            closer = getattr(self._source, "close", None)
            if closer is not None:
                closer()

    def all(
        self,
        timeout: Optional[float] = None,
        max_tuples: Optional[int] = None,
    ) -> List[Answer]:
        """Materialize every answer.  ``timeout`` (seconds of wall clock)
        and ``max_tuples`` (derived-fact cap) bound just this drain,
        overriding any session-level limits."""
        if timeout is not None or max_tuples is not None:
            from ..eval.limits import ResourceLimits

            self._limits = ResourceLimits(timeout=timeout, max_tuples=max_tuples)
            self._armed = False
        if not self._done:
            # one drain, not a pull per answer
            self._guarded(self._cache.extend, self._source)
            self._done = True
        return list(self._cache)

    def __len__(self) -> int:
        return len(self.all())

    def tuples(self) -> List[tuple]:
        """All answers as plain Python tuples."""
        return [tuple(map(from_arg, answer.args)) for answer in self.all()]


class Session:
    """A single-user CORAL process (Section 2)."""

    def __init__(
        self,
        data_directory: Optional[str] = None,
        buffer_capacity: int = 64,
        limits: Optional[ResourceLimits] = None,
        memo: Union[None, bool, str, MemoPolicy] = None,
        compiled: Optional[str] = "push",
    ) -> None:
        self.ctx = EvalContext()
        #: modules evaluate through the push code generator by default
        #: (docs/COMPILED.md); ``compiled=None`` keeps the interpreter, and
        #: an explicit ``@compiled(...)`` module annotation still wins
        self.modules = ModuleManager(self.ctx, default_compiled=compiled)
        #: default ResourceLimits applied to every query (None = unbounded);
        #: per-call ``QueryResult.all(timeout=...)`` overrides it
        self.limits = limits
        #: user-defined abstract data types (Section 7.1)
        self.types = TypeRegistry()
        self._server: Optional[StorageServer] = None
        self._pool: Optional[BufferPool] = None
        self._buffer_capacity = buffer_capacity
        #: cross-query answer cache (docs/MEMO.md).  ``memo=True`` memoizes
        #: every eligible module, ``memo="annotated"`` only modules carrying
        #: ``@memo``, a :class:`~repro.eval.memo.MemoPolicy` tunes the byte
        #: budget; None/False disables.
        self.memo: Optional[MemoCache] = None
        #: live-query registry (docs/LIVE.md), created lazily by the first
        #: :meth:`subscribe`; None until then so sessions that never
        #: subscribe pay nothing on the update path
        self.live = None
        #: always-on bounded ring of recent events (repro.obs.flight);
        #: installed via :meth:`enable_flight_recorder`, None = off
        self.flight = None
        #: slow-query log (repro.obs.slowlog); queries whose evaluation
        #: exceeds its threshold append a plan-annotated JSONL entry
        self.slow_log = None
        #: the distributed trace context of the request currently being
        #: evaluated (repro.obs.disttrace) — set by the server around each
        #: traced dispatch so the slow-query log can tag its entries and
        #: force-sample threshold outliers; None when untraced
        self.current_trace = None
        if memo:
            if isinstance(memo, MemoPolicy):
                policy = memo
            elif memo == "annotated":
                policy = MemoPolicy(annotated_only=True)
            else:
                policy = MemoPolicy()
            self.memo = MemoCache(self.modules, policy)
            self.ctx.memo = self.memo
        self._install_update_builtins()
        if data_directory is not None:
            self.open_storage(data_directory, buffer_capacity)

    def _install_update_builtins(self) -> None:
        """``assertz/1`` and ``retract/1``: updates with side effects, for
        pipelined modules whose evaluation order is guaranteed (Section 5.2:
        "programmers can exploit this guarantee and use predicates like
        updates that involve side-effects")."""
        from ..terms import Atom, Functor

        def _target(args, env):
            term = resolve(args[0], env)
            if isinstance(term, Functor):
                return term.name, term.args
            if isinstance(term, Atom):
                return term.name, ()
            raise EvaluationError(f"assertz/retract need a predicate term, got {term}")

        def _assert_impl(args, env, trail):
            name, fact_args = _target(args, env)
            self.commit_inserts([((name, len(fact_args)), Tuple(fact_args))])
            yield None

        def _retract_impl(args, env, trail):
            name, fact_args = _target(args, env)
            if self.commit_deletes([((name, len(fact_args)), Tuple(fact_args))]):
                yield None

        self.ctx.builtins.register_function(
            "assertz", 1, _assert_impl, pure=False
        )
        self.ctx.builtins.register_function(
            "retract", 1, _retract_impl, pure=False
        )

    # -- storage (the EXODUS client link, Section 2) ----------------------------

    def open_storage(
        self, directory: str, buffer_capacity: int = 64, faults=None
    ) -> None:
        """Open the page-based storage directory.  ``faults`` optionally
        threads a :class:`~repro.faults.FaultInjector` through the stack
        (crash tests)."""
        if self._server is not None:
            raise CoralError("storage is already open for this session")
        self._server = StorageServer(directory, faults=faults)
        self._pool = BufferPool(self._server, buffer_capacity)
        if self.ctx.obs is not None:
            # a recorder enabled before storage opened still sees faults
            self.ctx.obs.wire(self._server.faults)

    @property
    def storage_pool(self) -> BufferPool:
        if self._pool is None:
            raise CoralError(
                "no storage directory opened (pass data_directory= or call "
                "open_storage)"
            )
        return self._pool

    def persistent_relation(
        self, name: str, arity: int, unique: bool = True
    ) -> PersistentRelation:
        """Create or re-open a persistent relation and register it as a base
        relation visible to rules."""
        relation = PersistentRelation(name, arity, self.storage_pool, unique)
        existing = self.ctx.base_relations.get((name, arity))
        if existing is None:
            self.ctx.register_base(relation)
        elif not isinstance(existing, PersistentRelation):
            raise CoralError(
                f"{name}/{arity} already exists as an in-memory relation"
            )
        return relation

    def close(self) -> None:
        """Flush dirty pages and release the storage stack, and drop the
        push backend's resident state.

        Idempotent and exception-safe: a second ``close()`` is a no-op, and
        a ``close()`` after the storage server was already torn down (an
        injected crash, an earlier explicit close) skips the flush instead
        of raising from ``flush_all()`` against closed page files.  If the
        flush itself fails, the server is still closed and the session's
        references cleared before the error propagates, so retrying cannot
        double-fault."""
        self.ctx.push = None
        pool, server = self._pool, self._server
        self._pool = None
        self._server = None
        try:
            if pool is not None and server is not None and not server.closed:
                pool.flush_all()
        finally:
            if server is not None:
                server.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- consulting (Section 2) -----------------------------------------------------

    def consult(self, path: str) -> List[QueryResult]:
        """Consult a program/data file, loading modules and facts and
        running any queries it contains."""
        with open(path) as handle:
            return self.consult_string(
                handle.read(), base_directory=os.path.dirname(path)
            )

    def consult_string(
        self, source: str, base_directory: str = "."
    ) -> List[QueryResult]:
        program = parse_program(source)
        return self.load_program(program, base_directory)

    def load_program(
        self, program: Program, base_directory: str = "."
    ) -> List[QueryResult]:
        for command in program.commands:
            if command.name == "consult" and command.arguments:
                nested = command.arguments[0]
                if not os.path.isabs(nested):
                    nested = os.path.join(base_directory, nested)
                self.consult(nested)
        for module in program.modules:
            self.modules.load(module)
        reconstruct = self.types.reconstruct if len(self.types) else None
        self.commit_inserts(
            (
                fact.head.key,
                Tuple(
                    map(reconstruct, fact.head.args) if reconstruct else fact.head.args
                ),
            )
            for fact in program.facts
        )
        for annotation in program.index_annotations:
            relation = self.ctx.base_relation(annotation.pred, annotation.arity)
            if isinstance(relation, HashRelation):
                relation.add_index(index_spec_from_annotation(annotation))
        return [self.query_literal(query.literal) for query in program.queries]

    # -- queries ----------------------------------------------------------------------

    def query(self, text: str) -> QueryResult:
        """Answer a textual query, e.g. ``session.query("path(1, X)")``;
        a short text asked lately is not parsed again."""
        return self.query_literal(cached_query(text, parse_query).literal)

    def query_values(self, pred: str, *values: Any) -> QueryResult:
        """Programmatic query: Python values bind arguments, None leaves an
        argument free — ``session.query_values("path", 1, None)``."""
        args = tuple(
            Var("_") if value is None else to_arg(value) for value in values
        )
        return self.query_literal(Literal(pred, args))

    def query_literal(self, literal: Literal) -> QueryResult:
        relation = self.ctx.resolve(literal.pred, literal.arity)
        if (
            isinstance(relation, PersistentRelation)
            and relation.pool.server.closed
        ):
            # fail eagerly at query() time with a clear error, rather than
            # letting the dead storage stack surface something cryptic (or,
            # worse, silently resurrect closed page files) at first pull
            raise SessionClosedError(
                f"cannot query persistent relation {literal.pred}/"
                f"{literal.arity}: the session's storage was closed"
            )
        args = literal.args
        #: the variables an answer reports, by name (first occurrence)
        named: Dict[str, Var] = {}
        for arg in args:
            for var in arg.variables():
                if var.name != "_":
                    named.setdefault(var.name, var)
        # a flat goal meets a ground fact position by position: an answer
        # reads each variable off its position, with nothing to bind,
        # resolve or undo
        where = {name: args.index(var) for name, var in named.items()} \
            if flat_constants(args) is not None else None
        order = {name: i for i, name in enumerate(named)}

        def answers() -> Iterator[Answer]:
            # observability is sampled at first pull, not at query() time —
            # a profiler installed between the two still sees the query
            obs = self.ctx.obs
            slow = self.slow_log
            started = obs.begin_span() if obs is not None else 0.0
            finished = False
            if slow is not None:
                # accounting for the slow-query log: only time spent inside
                # this generator counts (resumed..yield segments), so a
                # consumer idling on a lazy cursor can't make a query "slow"
                stats_before = self.ctx.stats.snapshot()
                produced, eval_seconds = 0, 0.0
                resumed = time.perf_counter()
            env, trail = BindEnv(), Trail()
            cursor = None
            try:
                cursor = relation.scan(args, env)
                owned = cursor.owned
                if slow is None and cursor.plain:
                    # rows built for this call and matching it as they stand
                    yield from map(Answer, cursor.rows(), repeat(where))
                    rows = ()
                else:  # a plain cursor's rows come as Tuples
                    rows, matches = cursor, goal_filter(args)
                for row in rows:
                    if where is not None and row.is_ground():
                        if not matches(row):
                            continue
                        # a tuple the cursor does not own is not kept: a
                        # relation may hold it, or a memo entry serving it
                        # to other answers, and inserting the answer
                        # elsewhere restamps its seqno, so the relation
                        # holding it could not delete it
                        answer = Answer(row.args, where, None,
                                        row if owned else None)
                    else:
                        fact = row.renamed()
                        mark = trail.mark()
                        answer = None
                        if unify_fact(args, env, fact.args, trail):
                            tup = Tuple(tuple(resolve(arg, env) for arg in args))
                            answer = Answer(tup.args, order, tuple(
                                resolve(var, env) for var in named.values()
                            ), tup)
                        trail.undo_to(mark)
                    if answer is None:
                        continue
                    if slow is None:
                        yield answer
                        continue
                    produced += 1
                    eval_seconds += time.perf_counter() - resumed
                    try:
                        yield answer
                    finally:
                        # runs on normal resumption *and* on close at this
                        # yield, so the tail segment added in the outer
                        # finally starts counting here
                        resumed = time.perf_counter()
                finished = True
            finally:
                if cursor is not None:
                    cursor.close()
                if obs is not None:
                    obs.end_span("query", "eval", started,
                                 query=f"{literal.pred}/{literal.arity}")
                if slow is not None:
                    eval_seconds += time.perf_counter() - resumed
                    if eval_seconds >= slow.threshold:
                        after = self.ctx.stats.snapshot()
                        delta = {key: after[key] - stats_before.get(key, 0)
                                 for key in after}
                        slow.observe(self, literal, eval_seconds, produced,
                                     delta, finished)

        return QueryResult(answers(), ctx=self.ctx, limits=self.limits)

    # -- imperative fact management (Section 6) -----------------------------------------

    def relation(self, name: str, arity: int) -> Relation:
        """The base relation handle (creating an in-memory one if new)."""
        return self.ctx.base_relation(name, arity)

    def register_type(self, name: str, cls) -> None:
        """Register a user abstract data type under a constructor name
        (Section 7.1): consulted facts mentioning ``name(...)`` re-create
        instances via ``cls.construct``."""
        self.types.register(name, cls)

    def register_relation(self, relation: Relation) -> None:
        """Install a custom relation implementation (Section 7.2) as a base
        relation — e.g. a :class:`repro.extensibility.FunctionRelation`."""
        self.ctx.register_base(relation)

    def dump_relation(self, name: str, arity: int, path: str) -> int:
        """Write a base relation to a text file as facts, re-consultable by
        any session (Section 2: "persistent data is stored either in text
        files, or using the EXODUS storage manager").  Returns the number of
        facts written; non-ground facts keep their universal variables."""
        relation = self.ctx.base_relation(name, arity, create=False)
        count = 0
        with open(path, "w") as handle:
            for tup in relation.scan():
                inner = ", ".join(str(arg) for arg in tup.args)
                handle.write(f"{name}({inner}).\n" if arity else f"{name}.\n")
                count += 1
        return count

    def insert(self, pred: str, *values: Any) -> bool:
        return self.commit_inserts(
            [((pred, len(values)), Tuple(to_arg(v) for v in values))]
        )

    def delete(self, pred: str, *values: Any) -> bool:
        self.ctx.base_relation(pred, len(values), create=False)  # must exist
        return self.commit_deletes(
            [((pred, len(values)), Tuple(to_arg(v) for v in values))]
        )

    # -- the commit path: every base-relation update goes through these two

    def commit_inserts(self, facts: Iterable[PyTuple[PredKey, Tuple]]) -> bool:
        """Insert ``(key, tuple)`` pairs into base relations (created when
        new), then tell memo and live views once per predicate that
        changed.  True when anything was new."""
        changed: Dict[PredKey, None] = {}
        base_relation = self.ctx.base_relation
        for key, tup in facts:
            if base_relation(*key).insert(tup):
                changed[key] = None
        for key in changed:
            self.ctx.notify_insert(key)
        return bool(changed)

    def commit_deletes(self, facts: Iterable[PyTuple[PredKey, Tuple]]) -> bool:
        """Delete ``(key, tuple)`` pairs from base relations, telling push,
        memo and live views of each one removed (a missing relation or
        tuple is a no-op).  True when anything was removed."""
        changed = False
        relations = self.ctx.base_relations
        for key, tup in facts:
            relation = relations.get(key)
            if relation is not None and relation.delete(tup):
                self.ctx.notify_delete(key, tup)
                changed = True
        return changed

    @property
    def stats(self):
        return self.ctx.stats

    # -- live queries (repro.live, docs/LIVE.md) -----------------------------------

    def subscribe(self, query: Union[str, Literal], on_deltas, on_close=None):
        """Register a live query: ``on_deltas`` receives a list of
        ``(+1, tuple)`` / ``(-1, tuple)`` deltas after every committed
        mutation that changes the goal's answer set.  Returns the
        :class:`~repro.live.LiveView` (its :meth:`~repro.live.LiveView
        .snapshot` is the initial answer set); pass the view's ``view_id``
        to :meth:`unsubscribe` to stop.  Raises
        :class:`~repro.errors.SubscriptionError` when the goal cannot be
        maintained incrementally (negation, aggregation, ... — the
        ``maintain`` column of docs/INTERNALS.md's capability table)."""
        if self.live is None:
            from ..live import LiveViewManager

            self.live = LiveViewManager(self.ctx, self.modules)
            self.ctx.live = self.live
        literal = (
            parse_query(query).literal if isinstance(query, str) else query
        )
        return self.live.subscribe(literal, on_deltas, on_close)

    def unsubscribe(self, view_id: int) -> bool:
        """Deregister a live view by id; True if it was registered."""
        if self.live is None:
            return False
        return self.live.unsubscribe(view_id)

    # -- explanation (the tracing tool) ------------------------------------------

    def enable_tracing(self, limit: int = 100_000):
        """Turn on derivation recording for materialized evaluation and
        return the tracer; ``tracer.why("path(1, 3)")`` then prints a proof
        tree.  Costs time and memory — leave off in production runs."""
        from ..explain import DerivationTracer

        tracer = DerivationTracer(limit)
        self.ctx.tracer = tracer
        return tracer

    def disable_tracing(self) -> None:
        self.ctx.tracer = None

    def explain(self, query: str, analyze: bool = False) -> str:
        """The rendered evaluation plan for a textual query: module, chosen
        query form, rewriting technique, fixpoint strategy, SCC order, and
        each semi-naive rule with its body in join order.  With
        ``analyze=True`` the query is also *run* under a trace-free profiler
        and the rendering gains measured answers/iterations/per-rule costs.
        Same output as the shell's ``@explain`` and the slow-query log's
        ``plan`` field."""
        from ..explain.plan import explain as explain_plan

        return explain_plan(self, query, analyze=analyze)

    # -- observability (repro.obs) -------------------------------------------------

    def enable_flight_recorder(
        self, capacity: int = 4096, dump_path: Optional[str] = None
    ):
        """Install an always-on :class:`~repro.obs.flight.FlightRecorder`:
        a bounded ring of recent evaluation/storage events, cheap enough to
        leave enabled.  With ``dump_path`` set, the ring is written out as
        JSON lines when a storage fault fires or a query dies with
        ``StorageError``/``ResourceLimitError`` — a post-mortem without
        re-running under tracing.  A ``session.profile()`` block, before or
        after, shares the observer with the recorder: the ring keeps
        recording and dumping inside it.  Returns the recorder."""
        from ..obs.flight import FlightRecorder
        from ..obs.observer import attach

        recorder = FlightRecorder(capacity=capacity, dump_path=dump_path)
        injector = self._server.faults if self._server is not None else None
        attach(self.ctx, injector, "flight", recorder)
        self.flight = recorder
        return recorder

    def disable_flight_recorder(self) -> None:
        from ..obs.observer import detach

        if self.flight is not None:
            detach(self.ctx, "flight", self.flight)
            self.flight = None

    def enable_slow_query_log(
        self, path: str, threshold: float = 1.0, analyze: bool = False
    ):
        """Append queries whose *evaluation time* exceeds ``threshold``
        seconds to ``path`` as JSON lines, each carrying the query text,
        wall/answer/eval-stat accounting, and its rendered plan (see
        :meth:`explain`).  ``analyze=True`` re-runs each offender under a
        profiler for per-rule costs (guarded against self-logging).
        Returns the :class:`~repro.obs.slowlog.SlowQueryLog`."""
        from ..obs.slowlog import SlowQueryLog

        self.slow_log = SlowQueryLog(path, threshold, analyze)
        return self.slow_log

    def disable_slow_query_log(self) -> None:
        self.slow_log = None

    def buffer_stats(self) -> Optional[Dict[str, int]]:
        """A snapshot of the buffer pool's hit/miss/eviction/writeback
        counters, or None for an in-memory session (the server's STATS and
        the ``@top`` dashboard read this)."""
        if self._pool is None:
            return None
        return self._pool.stats.snapshot()

    def profile(self, trace: bool = True):
        """Profile everything evaluated inside a ``with`` block::

            with session.profile() as prof:
                session.query("path(1, X)").all()
            print(prof.profile.render())

        Returns a :class:`repro.obs.Profiler` context manager; on exit its
        ``profile`` attribute holds the structured :class:`QueryProfile`
        (rule applications, fixpoint iterations, subgoal timings, storage
        counters) plus the metrics registry and — unless ``trace=False`` —
        an event tracer exportable to JSON lines or ``chrome://tracing``.
        Profilers do not nest (a flight recorder may be attached alongside);
        the hooks cost one branch per site when nothing is attached.
        """
        from ..obs import Profiler

        return Profiler(
            self.ctx, pool=self._pool, server=self._server, trace=trace
        )
