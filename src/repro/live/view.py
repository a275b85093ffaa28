"""Live queries: maintained materialized views pushing deltas to subscribers.

A :class:`LiveView` registers one goal — ``path(1, X)``, ``edge(X, Y)`` —
and keeps its answer set continuously correct as base facts change,
delivering the *difference* after every committed mutation as a list of
``(+1, tuple)`` / ``(-1, tuple)`` deltas: materialized views as a service,
the push analogue of the server's pull cursors (ROADMAP item 4).

Two kinds of view share one registry:

* **Derived views** — the goal's predicate is exported by a module.  The
  view holds a private :class:`~repro.eval.maintenance.MaintenancePlan` —
  the goal's canonical call, a retained
  :class:`~repro.modules.manager.MaterializedInstance` answering it and the
  changes not yet repaired — the same engine the memo cache uses: inserts
  are absorbed by wave propagation through the rules' delta joins, deletes
  by DRed delete-rederive over the same joins.
  Where the memo cache repairs *lazily* (entries marked stale, freshened at
  the next lookup) a live view repairs *eagerly*, at mutation time, because
  the delta itself is the product: the repair reports the net change of
  the answer set, and the view filters it through the goal, patches its
  published answers and emits it.  When a repair fails (damage threshold,
  any unexpected error) the view falls back to a full rebuild and emits
  the keyed difference against what it last published — still a correct
  delta, where the memo cache can only evict — and records why.

* **Base views** — the predicate is a plain base relation.  No fixpoint is
  needed: inserts are read straight off the relation by insertion number
  (everything past the view's :class:`~repro.relations.Watermark`; the
  view takes no mark), deletes arrive with the mutation hook; both are
  filtered through the goal's pattern.

Exactly-once, ordered delivery follows from the hook discipline: every
committed mutation (``Session.insert/delete``, consulted fact batches, the
``assertz``/``retract`` builtins, replicated changelog records) notifies
the :class:`LiveViewManager` once, synchronously, in commit order; each
notification produces at most one delta event per view.  Re-entrant
notifications (an ``assertz`` firing mid-repair) are queued and drained in
order rather than recursed into.

A goal whose instance's ``maintain`` verdict is a refusal is refused at
subscribe time with a typed :class:`~repro.errors.SubscriptionError`
naming the obstruction: the same verdict that demotes a memo entry to
evict-on-update (docs/INTERNALS.md, "Capabilities", has the table).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple as PyTuple

from ..errors import SubscriptionError
from ..eval.join import goal_filter
from ..eval.maintenance import Buckets, MaintenancePlan, failure_reason
from ..language.ast import Literal
from ..optimizer.capabilities import OBSTRUCTIONS, instance_capabilities
from ..relations import MarkedRelation, Tuple, Watermark
from ..terms import resolve

PredKey = PyTuple[str, int]

#: one delta: (+1, tuple) for an arriving answer, (-1, tuple) for a leaving one
Delta = PyTuple[int, Tuple]

#: subscriber callback: one call per committed mutation that changed the view
DeltaSink = Callable[[List[Delta]], None]

#: optional teardown callback: the reason the view stopped being serviceable
CloseSink = Callable[[str], None]


@dataclass
class LiveStats:
    """Counters surfaced through ``LiveViewManager.snapshot()``, the
    server's STATS live section, and the ``/metrics`` exposition."""

    subscriptions: int = 0  # currently registered views
    subscribed_total: int = 0
    unsubscribed_total: int = 0
    refusals: int = 0  # SUBSCRIBE attempts rejected with SubscriptionError
    deltas_emitted: int = 0  # individual +/- tuples pushed to sinks
    events_emitted: int = 0  # non-empty delta batches pushed to sinks
    refreshes: int = 0  # incremental repairs (insert wave / DRed)
    rebuilds: int = 0  # full re-evaluations, whatever the cause
    rebuilds_damage: int = 0  # ... because DRed crossed the damage threshold
    rebuilds_error: int = 0  # ... because a repair raised
    rebuilds_modules: int = 0  # ... because a module was loaded or unloaded
    closes: int = 0  # views closed server-side (module unload/redefinition)

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


class LiveView:
    """One registered goal and its continuously maintained answer set."""

    __slots__ = (
        "manager",
        "view_id",
        "literal",
        "pattern",
        "module_name",
        "form",
        "plan",
        "base_key",
        "base_seen",
        "_matches",
        "answers",
        "on_deltas",
        "on_close",
        "closed",
        "deltas_emitted",
        "rebuilds",
    )

    def __init__(self, manager: "LiveViewManager", view_id: int,
                 literal: Literal, on_deltas: DeltaSink,
                 on_close: Optional[CloseSink]) -> None:
        self.manager = manager
        self.view_id = view_id
        self.literal = literal
        #: the goal's argument pattern (constants bind, variables select)
        self.pattern = [resolve(arg, None) for arg in literal.args]
        self._matches = goal_filter(self.pattern)
        self.module_name: Optional[str] = None
        self.form: Optional[str] = None
        self.plan: Optional[MaintenancePlan] = None
        self.base_key: Optional[PredKey] = None
        self.base_seen: Optional[Watermark] = None
        #: current answer set, keyed for diffing (Tuple.key() -> Tuple)
        self.answers: Dict[object, Tuple] = {}
        self.on_deltas = on_deltas
        self.on_close = on_close
        self.closed = False
        self.deltas_emitted = 0
        self.rebuilds = 0

    @property
    def deps(self) -> FrozenSet[PredKey]:
        if self.base_key is not None:
            return frozenset((self.base_key,))
        return self.plan.deps

    @property
    def instance(self):
        return self.plan.instance

    def snapshot(self) -> List[Tuple]:
        """The current answer set (a copy; safe to hand to a cursor)."""
        return list(self.answers.values())

    # -- registration ----------------------------------------------------------

    def _register(self) -> None:
        """Resolve the goal, refuse the unmaintainable, compute the initial
        answer set.  Raises :class:`SubscriptionError` on any obstruction."""
        modules = self.manager.modules
        pred, arity = self.literal.pred, self.literal.arity
        if self.manager.ctx.is_builtin(pred, arity):
            raise SubscriptionError(f"cannot subscribe to builtin {pred}/{arity}")
        exported = modules.exports.get((pred, arity))
        if exported is None:
            self._register_base(pred, arity)
            return
        self.module_name, export = exported
        bound = [arg.is_ground() for arg in self.pattern]
        self.form = modules.choose_form(export, bound)
        self._build_instance()

    def _build_instance(self) -> None:
        """(Re)compile a private instance + plan and evaluate it fully;
        refused, before any instance is built, when the ``maintain``
        verdict is."""
        manager = self.manager
        modules = manager.modules
        compiled = modules.compiled_form(self.module_name, self.literal.pred, self.form)
        reason = instance_capabilities(compiled, manager.ctx, modules.exports).maintain
        if reason is not None:
            raise SubscriptionError(
                f"{self.literal.pred}/{self.literal.arity} cannot be "
                f"maintained incrementally: {reason}"
            )
        self.plan = plan = MaintenancePlan(
            manager.ctx, modules, self.module_name, self.literal.pred,
            self.form, self.pattern,
        )
        cursor = plan.instance.call(plan.call_args)
        try:
            self.answers = {
                candidate.key(): candidate
                for candidate in cursor
                if self._matches(candidate)
            }
        finally:
            cursor.close()

    def _register_base(self, pred: str, arity: int) -> None:
        relation = self.manager.ctx.base_relation(pred, arity)
        if not isinstance(relation, MarkedRelation):
            reason = OBSTRUCTIONS["unmarked"][0].format(f"{pred}/{arity}")
            raise SubscriptionError(f"{reason}; a live view streams inserts off them")
        self.base_key = (pred, arity)
        self.base_seen = Watermark(relation)
        self.answers = {t.key(): t for t in relation.scan() if self._matches(t)}

    # -- repair + delta emission ----------------------------------------------

    def _emit(self, deltas: List[Delta]) -> None:
        if not deltas:
            return
        stats = self.manager.stats
        stats.deltas_emitted += len(deltas)
        stats.events_emitted += 1
        self.deltas_emitted += len(deltas)
        self.on_deltas(deltas)

    def _apply(self, key: PredKey, deleted: Optional[Tuple]) -> None:
        """Absorb one committed mutation of base predicate ``key`` and push
        the resulting difference (possibly empty) to the sink."""
        if self.base_key is not None:
            self._apply_base(deleted)
        else:
            self._apply_derived(key, deleted)

    def _apply_base(self, deleted: Optional[Tuple]) -> None:
        deltas: List[Delta] = []
        if deleted is not None:
            removed = self.answers.pop(deleted.key(), None)
            if removed is not None:
                deltas.append((-1, removed))
        else:
            for tup in self.base_seen.arrivals():
                if tup.key() not in self.answers and self._matches(tup):
                    self.answers[tup.key()] = tup
                    deltas.append((+1, tup))
        self._emit(deltas)

    def _apply_derived(self, key: PredKey, deleted: Optional[Tuple]) -> None:
        self.plan.note(key, deleted)
        try:
            change = self.plan.repair()
            self.manager.stats.refreshes += 1
        except Exception as exc:
            # damage threshold or any repair failure: rebuild from scratch.
            # The delta stays correct either way — a rebuild diffs against
            # the last *published* answer set — but say why, or a repair
            # that always fails looks like one that works, only slower.
            self._rebuild(failure_reason(exc))
            return
        # the repair's net change, narrowed to the goal: a removed key is
        # published only if it was, an added one only if it is not yet
        answers = self.answers
        deltas: List[Delta] = []
        for answer_key in change.removed:
            gone = answers.pop(answer_key, None)
            if gone is not None:
                deltas.append((-1, gone))
        for answer_key, tup in change.added.items():
            if answer_key not in answers and self._matches(tup):
                answers[answer_key] = tup
                deltas.append((+1, tup))
        self._emit(deltas)

    def _diff(self, fresh: Dict[object, Tuple]) -> List[Delta]:
        deltas: List[Delta] = []
        for key, tup in self.answers.items():
            if key not in fresh:
                deltas.append((-1, tup))
        for key, tup in fresh.items():
            if key not in self.answers:
                deltas.append((+1, tup))
        self.answers = fresh
        return deltas

    def _rebuild(self, reason: str) -> None:
        """Full re-evaluation against the current database, diffed against
        the last published answer set.  ``reason`` is ``"damage"``,
        ``"modules"`` or the type name of the exception a repair raised."""
        stats = self.manager.stats
        stats.rebuilds += 1
        if reason == "damage":
            stats.rebuilds_damage += 1
        elif reason == "modules":
            stats.rebuilds_modules += 1
        else:
            stats.rebuilds_error += 1
        self.rebuilds += 1
        self.manager._trace("live.rebuild", self.literal.pred,
                            self.literal.arity, view=self.view_id,
                            reason=reason)
        old = self.answers
        try:
            self._build_instance()
        except Exception as exc:
            self.manager._close_view(
                self, f"rebuild failed: {exc}"
            )
            return
        fresh = self.answers
        self.answers = old
        self._emit(self._diff(fresh))


class LiveViewManager:
    """The per-session registry of live views, installed as ``ctx.live``.

    Mutation hooks (:meth:`on_insert` / :meth:`on_delete`) arrive from the
    same call sites that notify the memo cache; each hook call is one
    committed mutation and produces at most one delta event per dependent
    view, in commit order.  Each view's repair state (its queue of
    unrepaired changes, watermarks) lives in its own
    :class:`MaintenancePlan`, so a memo entry and a live view over the same
    predicate repair independently — neither consumes or double-applies the
    other's deltas."""

    def __init__(self, ctx, modules) -> None:
        self.ctx = ctx
        self.modules = modules
        self.stats = LiveStats()
        self._views: Dict[int, LiveView] = {}
        #: base predicate -> ids of the views reading it
        self._by_dep = Buckets()
        self._next_id = 1
        self._queue: deque = deque()
        self._draining = False

    # -- registration ----------------------------------------------------------

    def subscribe(
        self,
        literal: Literal,
        on_deltas: DeltaSink,
        on_close: Optional[CloseSink] = None,
    ) -> LiveView:
        """Register a goal; returns the view with its initial answer set
        already computed (``view.snapshot()``).  Raises
        :class:`SubscriptionError` when the goal cannot be maintained."""
        view = LiveView(self, self._next_id, literal, on_deltas, on_close)
        try:
            view._register()
        except SubscriptionError:
            self.stats.refusals += 1
            self._trace("live.refuse", literal.pred, literal.arity)
            raise
        self._next_id += 1
        self._views[view.view_id] = view
        self._by_dep.add(view.deps, view.view_id)
        self.stats.subscriptions = len(self._views)
        self.stats.subscribed_total += 1
        self._trace("live.subscribe", literal.pred, literal.arity,
                    view=view.view_id, answers=len(view.answers))
        return view

    def unsubscribe(self, view_id: int) -> bool:
        view = self._views.pop(view_id, None)
        if view is None:
            return False
        view.closed = True
        self._by_dep.discard(view.deps, view_id)
        self.stats.subscriptions = len(self._views)
        self.stats.unsubscribed_total += 1
        self._trace("live.unsubscribe", view.literal.pred,
                    view.literal.arity, view=view_id)
        return True

    def _close_view(self, view: LiveView, reason: str) -> None:
        """Server-side teardown (module unloaded, rebuild impossible)."""
        if self.unsubscribe(view.view_id):
            self.stats.closes += 1
            if view.on_close is not None:
                view.on_close(reason)

    # -- mutation hooks (same call sites as ctx.memo) --------------------------

    def on_insert(self, key: PredKey) -> None:
        """One committed insert batch on base predicate ``key`` (the new
        tuples are read off the relation by insertion number)."""
        self._notify(key, None)

    def on_delete(self, key: PredKey, tup: Tuple) -> None:
        """One committed delete of ``tup`` from base predicate ``key``."""
        self._notify(key, tup)

    def _notify(self, key: PredKey, deleted: Optional[Tuple]) -> None:
        if key not in self._by_dep:
            return
        self._queue.append((key, deleted))
        if self._draining:
            return  # re-entrant hook (assertz mid-repair): drain in order
        self._draining = True
        try:
            while self._queue:
                pending_key, pending_deleted = self._queue.popleft()
                for view_id in list(self._by_dep.get(pending_key, ())):
                    view = self._views.get(view_id)
                    if view is not None:
                        view._apply(pending_key, pending_deleted)
        finally:
            self._draining = False

    def on_modules_changed(self) -> None:
        """A module was loaded or unloaded: what any predicate resolves to
        may have changed.  Derived views rebuild (emitting the difference);
        views whose goal no longer resolves the same way are closed."""
        for view in list(self._views.values()):
            goal_key = (view.literal.pred, view.literal.arity)
            exported = self.modules.exports.get(goal_key)
            if view.base_key is not None:
                if exported is not None:
                    self._close_view(
                        view,
                        f"{goal_key[0]}/{goal_key[1]} is now derived by "
                        f"module {exported[0]}",
                    )
                continue
            if exported is None or exported[0] != view.module_name:
                self._close_view(
                    view,
                    f"{goal_key[0]}/{goal_key[1]} is no longer exported by "
                    f"module {view.module_name}",
                )
                continue
            old_deps = view.deps
            view._rebuild("modules")
            if not view.closed:
                self._by_dep.discard(old_deps, view.view_id)
                self._by_dep.add(view.deps, view.view_id)

    # -- bookkeeping -----------------------------------------------------------

    def views(self) -> List[LiveView]:
        return list(self._views.values())

    def snapshot(self) -> Dict[str, int]:
        return self.stats.snapshot()

    def _trace(self, name: str, pred: str, arity: int, **extra) -> None:
        obs = self.ctx.obs
        if obs is not None:
            obs.event(name, cat="live", pred=f"{pred}/{arity}", **extra)
