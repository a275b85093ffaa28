"""Cross-query answer memoization with incremental invalidation.

CORAL's module system already retains materialized answers *within* a call
(and across calls under ``@save_module``, Section 5.4.2); this module
retains them **across queries**: a per-module answer cache keyed by
(predicate, adornment, bound-argument values) that keeps the magic /
semi-naive fixpoint results of a module invocation alive so the next query
with the same — or a *less* bound — subgoal is answered without
re-evaluation.

Three mechanisms make the cache safe:

* **Subsumption serving.**  An entry computed for query form ``F`` with
  bound values ``v`` answers any call whose ground positions include ``F``'s
  'b' positions with equal values: a cached ``anc(bf)`` with ``X = a``
  serves ``anc(a, Y)`` *and* ``anc(a, b)``; a cached all-free result serves
  any more-bound call by filtering.  This is sound because the relation scan
  contract returns *candidates* — every caller unifies each tuple against
  its own pattern anyway.

* **Incremental invalidation.**  ``Session.insert/delete`` (and the
  ``assertz``/``retract`` builtins) report base-predicate changes to the
  cache.  For entries whose ``maintain`` verdict allows it
  (docs/INTERNALS.md, "Capabilities") inserts are absorbed lazily by
  wave propagation: the unconsumed slice of each base relation (the tuples
  numbered past the entry's watermark on it; reading takes no mark) is
  pushed through the rules' delta joins until nothing new is derived.
  Deletes run DRed-style delete-rederive with the same joins: over-delete
  everything the deleted tuples support (against the *pre-state*), then
  re-derive, checking each over-deleted fact once.
  Magic/supplementary-magic *magic* predicates are exempt from
  over-deletion: an over-complete magic set only gates relevance, never
  truth.  A repair reports the net change of the answer set and the entry
  patches its snapshot with it.  Above the damage threshold
  (:data:`repro.eval.maintenance.DAMAGE_THRESHOLD`) —
  or for any entry whose ``maintain`` verdict is a refusal — the whole
  entry is evicted, with the reason, and recomputed on next use.

* **Snapshot pinning.**  Served answers are an immutable list captured at
  lookup time; a refresh *replaces* the list rather than mutating it, so a
  streaming cursor (the server's ``FETCH`` loop) never observes a
  concurrent invalidation mid-cursor.

Entries live in an LRU keyed store under a byte budget
(:class:`MemoPolicy`); ``@memo`` / ``@no_memo`` module annotations and the
``Session(memo=...)`` policy select which modules participate.

The repair machinery itself (delta joins, wave propagation, DRed) lives in
:mod:`repro.eval.maintenance` — this cache and the live-query subsystem
(:mod:`repro.live`) are two consumers of one engine.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from ..relations import GeneratorTupleIterator, Tuple, TupleIterator
from ..terms import Atom, Double, Functor, Int, Str, Var
from ..terms.unify import flat_constants
from .join import goal_filter
from .maintenance import NetChange, failure_reason, plan_maintenance

PredKey = PyTuple[str, int]

#: entry key: (module, pred, arity, adornment, bound values at 'b' positions)
EntryKey = PyTuple[str, str, int, str, tuple]


@dataclass
class MemoPolicy:
    """Knobs for the cross-query answer cache (``Session(memo=...)``)."""

    #: total byte budget across entries; least recently used evicted first
    max_bytes: int = 32 * 1024 * 1024
    #: refuse to retain any single entry larger than this (0 = max_bytes/4)
    max_entry_bytes: int = 0
    #: memoize only modules carrying the ``@memo`` annotation
    annotated_only: bool = False

    def entry_budget(self) -> int:
        return self.max_entry_bytes or max(1, self.max_bytes // 4)


@dataclass
class MemoStats:
    """Counters surfaced through ``MemoCache.stats()``, the server's STATS
    op, and (when profiling) ``repro.obs`` metrics."""

    hits: int = 0
    misses: int = 0
    subsumption_hits: int = 0
    invalidations: int = 0  # entries marked stale or evicted by an update
    evictions: int = 0  # entries dropped (budget, damage, unmaintainable)
    evictions_damage: int = 0  # ... because DRed crossed the damage threshold
    evictions_error: int = 0  # ... because a repair raised
    insert_refreshes: int = 0
    delete_refreshes: int = 0
    dred_overdeleted: int = 0
    dred_rederived: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class _ModuleInfo:
    """Transitive facts about a module's rule set (cached per module)."""

    base_deps: FrozenSet[PredKey]
    impure: bool  # reaches a side-effecting builtin (assertz/retract, ...)


class MemoEntry:
    """One retained module invocation: its answers, its evaluators (held by
    ``plan.instance``), and its private repair state.  The *mechanics* of
    repair live in the entry's :class:`~repro.eval.maintenance.MaintenancePlan`;
    the pending-delete queue stays here because it is strictly per-consumer
    state (a live view over the same predicate keeps its own)."""

    __slots__ = (
        "key",
        "module_name",
        "pred",
        "arity",
        "form",
        "call_args",
        "answers",
        "instance",
        "plan",
        "stale_inserts",
        "pending_deletes",
        "nbytes",
    )

    def __init__(self, key: EntryKey, module_name: str, pred: str, arity: int,
                 form: str, call_args: Sequence) -> None:
        self.key = key
        self.module_name = module_name
        self.pred = pred
        self.arity = arity
        self.form = form
        self.call_args = list(call_args)
        self.answers: List[Tuple] = []
        self.instance = None
        self.plan = None
        self.stale_inserts = False
        self.pending_deletes: Dict[PredKey, List[Tuple]] = {}
        self.nbytes = 0

    @property
    def deps(self) -> FrozenSet[PredKey]:
        return self.plan.deps if self.plan is not None else frozenset()

    @property
    def stale(self) -> bool:
        return self.stale_inserts or bool(self.pending_deletes)


class MemoCache:
    """The per-session answer cache.  Installed as ``ctx.memo``; consulted
    by :meth:`repro.modules.manager.ExportedRelation.scan`."""

    def __init__(self, manager, policy: Optional[MemoPolicy] = None) -> None:
        self.manager = manager
        self.ctx = manager.ctx
        self.policy = policy or MemoPolicy()
        self.stats = MemoStats()
        self._entries: "OrderedDict[EntryKey, MemoEntry]" = OrderedDict()
        #: secondary index: (module, pred, arity) -> entry keys (subsumption)
        self._by_pred: Dict[PyTuple[str, str, int], Set[EntryKey]] = {}
        #: reverse dependency index: base PredKey -> entry keys
        self._by_dep: Dict[PredKey, Set[EntryKey]] = {}
        self._module_info: Dict[str, _ModuleInfo] = {}
        self._module_eligible: Dict[str, bool] = {}
        self._building: Set[EntryKey] = set()
        self.total_bytes = 0
        #: bumped by every invalidation; guards mid-build staleness
        self.generation = 0

    # -- public bookkeeping ----------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        counters = self.stats.snapshot()
        counters["entries"] = len(self._entries)
        counters["bytes"] = self.total_bytes
        return counters

    def clear(self) -> None:
        """Drop everything — called on module load/unload, which can change
        what any predicate name resolves to."""
        self.generation += 1
        self._entries.clear()
        self._by_pred.clear()
        self._by_dep.clear()
        self._module_info.clear()
        self._module_eligible.clear()
        self.total_bytes = 0

    # -- invalidation hooks (Session.insert/delete, assertz/retract) -----------

    def on_insert(self, key: PredKey) -> None:
        self._invalidate(key, None)

    def on_delete(self, key: PredKey, tup: Tuple) -> None:
        self._invalidate(key, tup)

    def _invalidate(self, key: PredKey, deleted: Optional[Tuple]) -> None:
        """Mark every entry depending on ``key`` stale; one whose
        instance's ``maintain`` verdict is a refusal is evicted with it."""
        self.generation += 1
        sign = "+" if deleted is None else "-"
        for entry_key in list(self._by_dep.get(key, ())):
            entry = self._entries.get(entry_key)
            if entry is None:
                continue
            self.stats.invalidations += 1
            self._trace("memo.invalidate", entry, change=f"{sign}{key[0]}/{key[1]}")
            refusal = entry.instance.capabilities.maintain
            if refusal is not None:
                self._trace("memo.evict", entry, reason=refusal)
                self._evict(entry)
            elif deleted is None:
                entry.stale_inserts = True
            else:
                entry.pending_deletes.setdefault(key, []).append(deleted)

    # -- lookup (the ExportedRelation.scan hook) -------------------------------

    def lookup(
        self,
        module_name: str,
        export,
        resolved: Sequence,
        bound: Sequence[bool],
    ) -> Optional[TupleIterator]:
        """Serve (or compute-and-retain) the call ``export.pred(resolved)``.
        Returns None when the module is not memoizable — the caller then
        falls through to the ordinary un-memoized path."""
        if not self._eligible(module_name):
            return None
        form = self.manager.choose_form(export, bound)
        key_values = tuple(
            resolved[position].ground_key()
            for position, flag in enumerate(form)
            if flag == "b"
        )
        key: EntryKey = (module_name, export.pred, export.arity, form, key_values)
        if key in self._building:
            return None  # cross-module recursion back into a building entry

        entry = self._entries.get(key)
        if entry is not None and self._freshen(entry):
            self.stats.hits += 1
            self._entries.move_to_end(key)
            self._trace("memo.hit", entry)
            return _serve(entry.answers, resolved, form)
        if entry is None:
            served = self._subsumption_lookup(key, resolved, bound)
            if served is not None:
                return served
        return self._build(key, module_name, export, form, resolved)

    # -- internals -------------------------------------------------------------

    def _trace(self, name: str, entry: MemoEntry, **extra) -> None:
        obs = self.ctx.obs
        if obs is not None:
            obs.event(
                name,
                cat="memo",
                module=entry.module_name,
                pred=f"{entry.pred}/{entry.arity}",
                form=entry.form,
                **extra,
            )

    def _eligible(self, module_name: str) -> bool:
        cached = self._module_eligible.get(module_name)
        if cached is not None:
            return cached
        module = self.manager.modules.get(module_name)
        # the module's own opt-out / opt-in, and side effects a hit would
        # skip; whether an entry is repaired is its instance's verdict
        ok = (
            module is not None
            and not module.has_flag("no_memo")
            and (module.has_flag("memo") or not self.policy.annotated_only)
            and not self._info(module_name).impure
        )
        self._module_eligible[module_name] = ok
        return ok

    def _info(self, module_name: str, _visiting: Optional[Set[str]] = None) -> _ModuleInfo:
        cached = self._module_info.get(module_name)
        if cached is not None:
            return cached
        visiting = _visiting or set()
        visiting.add(module_name)
        module = self.manager.modules[module_name]
        defined = set(module.defined_predicates())
        base: Set[PredKey] = set()
        impure = False
        for rule in module.rules:
            for literal in rule.body:
                lkey = literal.key
                builtin = self.ctx.builtins.lookup(*lkey)
                if builtin is not None:
                    impure = impure or not builtin.pure
                    continue
                if lkey in defined:
                    continue
                exported = self.manager.exports.get(lkey)
                if exported is not None:
                    other = exported[0]
                    if other in visiting:
                        continue
                    info = self._info(other, visiting)
                    base |= info.base_deps
                    impure = impure or info.impure
                else:
                    base.add(lkey)
        info = _ModuleInfo(frozenset(base), impure)
        self._module_info[module_name] = info
        return info

    def _subsumption_lookup(
        self, key: EntryKey, resolved: Sequence, bound: Sequence[bool]
    ) -> Optional[TupleIterator]:
        """An existing entry whose bound positions are a subset of this
        call's ground positions (with equal values) serves by filtering."""
        module_name, pred, arity = key[0], key[1], key[2]
        # (a copy: freshening an entry may evict it from this very bucket)
        for entry_key in list(self._by_pred.get((module_name, pred, arity), ())):
            entry = self._entries.get(entry_key)
            if entry is None:
                continue
            form = entry.form
            usable = all(
                flag == "f"
                or (bound[position]
                    and resolved[position].ground_key() == entry.key[4][
                        sum(1 for f in form[:position] if f == "b")])
                for position, flag in enumerate(form)
            )
            if not usable:
                continue
            if not self._freshen(entry):
                continue  # evicted during refresh; retry others
            self.stats.hits += 1
            self.stats.subsumption_hits += 1
            self._entries.move_to_end(entry.key)
            self._trace("memo.hit", entry, subsumed_by=entry.form)
            return _serve(entry.answers, resolved)
        return None

    def _build(
        self, key: EntryKey, module_name: str, export, form: str,
        resolved: Sequence,
    ) -> TupleIterator:
        """Cache miss: evaluate the *canonical* call for this key (bound
        values at the form's 'b' positions, fresh variables elsewhere),
        retain the instance, and serve the caller by filtering."""
        self.stats.misses += 1
        generation = self.generation
        call_args = [
            resolved[position] if flag == "b" else Var("_")
            for position, flag in enumerate(form)
        ]
        entry = MemoEntry(key, module_name, export.pred, export.arity, form,
                          call_args)
        instance = self.manager.instance_for(module_name, export.pred, form)
        entry.instance = instance
        self._analyze(entry)
        self._building.add(key)
        try:
            entry.answers = list(instance.call(call_args))
        finally:
            self._building.discard(key)
        self._trace("memo.miss", entry, answers=len(entry.answers))
        entry.nbytes = _estimate_entry_bytes(entry)
        if generation == self.generation and \
                entry.nbytes <= self.policy.entry_budget():
            self._store(entry)
        return _serve(entry.answers, resolved, form)

    def _analyze(self, entry: MemoEntry) -> None:
        """Delegate to the shared maintenance engine: the plan carries the
        base deps (for the reverse-dependency index even when eviction is
        the only option) and whether incremental repair is possible."""
        entry.plan = plan_maintenance(
            self.ctx,
            entry.instance,
            self.manager.exports,
            module_deps=lambda name: self._info(name).base_deps,
            call_args=entry.call_args,
        )

    def _store(self, entry: MemoEntry) -> None:
        old = self._entries.get(entry.key)
        if old is not None:
            self._evict(old)
        self._entries[entry.key] = entry
        self._by_pred.setdefault(
            (entry.module_name, entry.pred, entry.arity), set()
        ).add(entry.key)
        for dep in entry.deps:
            self._by_dep.setdefault(dep, set()).add(entry.key)
        self.total_bytes += entry.nbytes
        while self.total_bytes > self.policy.max_bytes and self._entries:
            oldest = next(iter(self._entries.values()))
            self._evict(oldest)

    def _evict(self, entry: MemoEntry) -> None:
        if self._entries.pop(entry.key, None) is None:
            return
        self.stats.evictions += 1
        self.total_bytes -= entry.nbytes
        pred_key = (entry.module_name, entry.pred, entry.arity)
        bucket = self._by_pred.get(pred_key)
        if bucket is not None:
            bucket.discard(entry.key)
            if not bucket:
                del self._by_pred[pred_key]
        for dep in entry.deps:
            bucket = self._by_dep.get(dep)
            if bucket is not None:
                bucket.discard(entry.key)
                if not bucket:
                    del self._by_dep[dep]

    # -- incremental refresh ---------------------------------------------------

    def _freshen(self, entry: MemoEntry) -> bool:
        """Bring a stale entry up to date in place.  Returns False when the
        entry was evicted instead (damage threshold, unexpected failure) —
        the caller falls back to a rebuild."""
        if not entry.stale:
            return True
        change = NetChange()
        scope_bytes = _estimate_scope_bytes(entry.instance)
        try:
            if entry.pending_deletes:
                entry.plan.apply_deletes(entry.pending_deletes, change)
                self.stats.dred_overdeleted += change.over_deleted
                self.stats.dred_rederived += change.rederived
                self.stats.delete_refreshes += 1
            if entry.stale_inserts:
                entry.plan.apply_inserts(change)
                self.stats.insert_refreshes += 1
        except Exception as exc:
            # any repair failure degrades to eviction: correctness comes
            # from recomputation, the cache only ever skips work — but say
            # why, or a repair that always fails looks like one that works
            reason = failure_reason(exc)
            if reason == "damage":
                self.stats.evictions_damage += 1
            else:
                self.stats.evictions_error += 1
            self._trace("memo.evict", entry, reason=reason)
            self._evict(entry)
            return False
        entry.pending_deletes = {}
        entry.stale_inserts = False
        if change:
            # patch the snapshot with the net change; a new list, so an
            # open cursor keeps the one it captured
            removed = change.removed
            kept = entry.answers
            if removed:
                kept = [tup for tup in kept if tup.key() not in removed]
            entry.answers = kept + list(change.added.values())
        grown = (
            sum(map(_estimate_tuple_bytes, change.added.values()))
            - sum(map(_estimate_tuple_bytes, change.removed.values()))
            + _estimate_scope_bytes(entry.instance) - scope_bytes
        )
        entry.nbytes += grown
        self.total_bytes += grown
        self._trace("memo.refresh", entry, answers=len(entry.answers))
        return True


# -- serving -------------------------------------------------------------------


def _serve(
    answers: List[Tuple], resolved: Sequence, form: Optional[str] = None
) -> TupleIterator:
    """A cursor over a pinned answer snapshot, filtered down to tuples
    compatible with the call's (possibly more-bound) arguments.  The list
    reference is captured here, so a refresh replacing ``entry.answers``
    never disturbs an open cursor.

    When the caller knows the entry's adornment ``form``, its 'b' positions
    equal the entry key by construction and select nothing; a call whose
    other arguments are pairwise-distinct free variables — the common case
    — serves the snapshot without looking at an answer.
    """
    pattern = [
        Var("_") if form is not None and form[position] == "b" else arg
        for position, arg in enumerate(resolved)
    ]
    if flat_constants(pattern) == []:
        return GeneratorTupleIterator(iter(answers))
    matches = goal_filter(pattern)
    return GeneratorTupleIterator(fact for fact in answers if matches(fact))


# -- sizing --------------------------------------------------------------------


def _estimate_arg_bytes(arg) -> int:
    if isinstance(arg, Str):
        return 56 + len(arg.value)
    if isinstance(arg, (Int, Double, Atom, Var)):
        return 32
    if isinstance(arg, Functor):
        return 56 + sum(_estimate_arg_bytes(child) for child in arg.args)
    return 48


def _estimate_tuple_bytes(tup: Tuple) -> int:
    return 56 + sum(_estimate_arg_bytes(arg) for arg in tup.args)


def _estimate_scope_bytes(instance) -> int:
    return sum(
        len(relation) * (64 + 32 * arity)
        for (_name, arity), relation in instance.scope.local.items()
    )


def _estimate_entry_bytes(entry: MemoEntry) -> int:
    answer_bytes = sum(_estimate_tuple_bytes(tup) for tup in entry.answers)
    return 1024 + answer_bytes + _estimate_scope_bytes(entry.instance)
