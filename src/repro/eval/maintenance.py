"""The shared incremental view-maintenance engine.

Behrend's *Uniform Fixpoint Approach* (PAPERS.md) observes that update
propagation is just the program's delta rules seeded with the change: the
same joins that compute a materialized result can repair it.  This module
is that observation made concrete, around one mechanism — **delta-seeded
joins with the indexes they need** — so that absorbing a commit costs in
proportion to the change, not to the size of the materialization or to how
long the session has lived.

A :class:`MaintenancePlan` wraps one retained
:class:`~repro.modules.manager.MaterializedInstance` and builds, once:

* a **delta join** for every rule and every positive non-builtin body
  position — a :class:`~repro.rewriting.seminaive.DeltaRule` made by the
  same :func:`~repro.rewriting.seminaive.delta_rules` as the fixpoint's
  versions, its seed first and the rest of the body bound-first
  (:func:`repro.optimizer.joinorder.order_body`; builtins only once their
  inputs are bound), every non-seed literal reading its full extent;
* a **head-bound check** for every rule: unify the head with a fact, then
  run the body bound-first — "does this rule still derive it?";
* the :class:`~repro.relations.ArgumentIndexSpec` every one of those probes
  needs, added to the instance's local relations and to the base
  dependencies, so no probe walks a relation.

Both repairs are the same wave over those joins.  A wave maps each
predicate to its changed tuples, and each join seeded on that predicate
runs **once per wave**, its seed reading the whole list; the heads a join
derives are collected before any is inserted.

* :meth:`MaintenancePlan.apply_inserts` seeds a wave with the unconsumed
  slice of each base dependency (the tuples past the plan's
  :class:`~repro.relations.Watermark` on it, so reading takes no mark) and
  pushes it through the delta joins over the current state until a wave
  derives nothing new.  The retained evaluators are not resumed.
* :meth:`MaintenancePlan.apply_deletes` is DRed.  *Over-delete*: push the
  removed tuples through the same joins against the pre-state, collecting
  everything that loses a derivation **before** physically deleting any of
  it, so the joins run on the real, indexed relations (only a base
  dependency with pending tuples is shown as current ∪ pending).  Magic
  predicates are exempt: an over-complete magic set only gates relevance,
  never truth.  A factored context relation is not — its facts generate
  answers — except for the call's own seed fact, which no rule derives and
  which is therefore pinned.  *Re-derive*: check each over-deleted fact **once** with the
  head-bound checks, reinsert the survivors, and let the insert wave carry
  them to everything they support.

Each repair returns the :class:`NetChange` of the goal's answer set, so a
consumer patches what it published instead of re-reading the answer
relation.

The engine is consumer-neutral with **strictly per-consumer state**: the
watermarks and the joins belong to one plan, the pending-delete queue
to the consumer that owns it.  Two consumers drive it today:

* :class:`repro.eval.memo.MemoCache` — lazy repair: entries marked stale by
  an update are freshened at the next lookup;
* :class:`repro.live.LiveViewManager` — eager repair: registered live views
  are repaired at commit time and the net change is pushed to subscribers
  as ``+tuple``/``-tuple`` deltas (docs/LIVE.md).

Nothing here attaches repair state to the shared base relations, so one
consumer's DRed pass can never double-apply — or starve — another's.
``tests/test_live.py`` pins this with an interleaved memo+subscription
regression.

*Whether* an instance can be repaired is not decided here: it is the
instance's ``maintain`` verdict (docs/INTERNALS.md, "Capabilities") — the
memo cache falls back to evict-on-update with that reason, the live
subsystem surfaces it verbatim in a typed ``SubscriptionError`` refusal.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from ..language.ast import Literal, Rule
from ..optimizer.joinorder import order_body
from ..relations import (
    ArgumentIndexSpec,
    GeneratorTupleIterator,
    HashRelation,
    ListTupleIterator,
    Relation,
    Tuple,
    Watermark,
)
from ..rewriting.magic import MAGIC_PREFIX
from ..rewriting.seminaive import delta_rules
from ..terms import BindEnv, Trail
from ..terms.unify import unify_fact
from .join import BodyExecutor, derive, instantiate_head

PredKey = PyTuple[str, int]

#: optional callback resolving the transitive base dependencies of a module
#: reached through a cross-module call (the memo cache supplies its cached
#: module info; consumers that refuse cross-module plans may pass None)
ModuleDeps = Callable[[str], FrozenSet[PredKey]]

#: DRed bail-out, for memo entries and live views alike: when over-deletion
#: touches more than this fraction of an instance's derived facts (and more
#: than 64 of them), the consumer starts over instead of repairing
DAMAGE_THRESHOLD = 0.5


class DamageExceeded(Exception):
    """DRed over-deletion crossed the damage threshold: repairing would
    touch so much of the materialization that starting over is cheaper.

    Raised while the over-deleted set is still being *collected* — nothing
    has been deleted — but the consumer is expected to discard the instance
    all the same: the memo cache evicts the entry, a live view rebuilds
    from scratch (and still emits a correct delta, because a rebuild diffs
    against its last published answer set)."""


def failure_reason(exc: Exception) -> str:
    """Why a repair fell back, as consumers record it on their ``memo.evict``
    / ``live.rebuild`` events: ``"damage"``, or the exception's type name."""
    return "damage" if isinstance(exc, DamageExceeded) else type(exc).__name__


class NetChange:
    """What repairs did to the goal's answer set: the facts that arrived
    and the facts that left, each keyed by ``Tuple.key()``.

    A fact that leaves and comes back (over-deleted, then re-derived), or
    arrives and leaves again, cancels out — thread one ``NetChange``
    through a delete repair and the insert repair that follows it and the
    consumer sees a single net difference."""

    __slots__ = ("added", "removed", "over_deleted", "rederived")

    def __init__(self) -> None:
        self.added: Dict[object, Tuple] = {}
        self.removed: Dict[object, Tuple] = {}
        #: DRed bookkeeping, over all local predicates (not just answers)
        self.over_deleted = 0
        self.rederived = 0

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def arrive(self, tup: Tuple) -> None:
        key = tup.key()
        if self.removed.pop(key, None) is None:
            self.added[key] = tup

    def leave(self, tup: Tuple) -> None:
        key = tup.key()
        if self.added.pop(key, None) is None:
            self.removed[key] = tup


class _PreState:
    """A base dependency as over-deletion must see it: its current contents
    ∪ the tuples this consumer has not yet repaired for.  Only ever scanned;
    the pending side is a handful of tuples, returned to every probe (the
    caller unifies each candidate anyway)."""

    def __init__(self, current: Relation, pending: Sequence[Tuple]) -> None:
        self.current = current
        self.pending = pending

    def scan(self, pattern=None, env=None) -> GeneratorTupleIterator:
        return GeneratorTupleIterator(
            chain(self.current.scan(pattern, env), self.pending)
        )


class _RepairScope:
    """The :class:`LocalScope` stand-in the plan's executors resolve
    relations through: the instance's own scope, except that while an
    over-deletion is collecting, ``pre_state`` shows each base dependency
    with pending deletes as current ∪ pending.

    ``pre_state`` is filled from one consumer's pending queue for the
    duration of one :meth:`MaintenancePlan.apply_deletes` call and lives on
    that consumer's plan — never on the shared base relations — which is
    what keeps concurrent consumers (memo + live views) from
    double-applying each other's deletions."""

    def __init__(self, scope) -> None:
        self.ctx = scope.ctx
        self._scope = scope
        self.pre_state: Dict[PredKey, _PreState] = {}

    def relation(self, name: str, arity: int):
        shown = self.pre_state.get((name, arity))
        if shown is not None:
            return shown
        return self._scope.relation(name, arity)


class MaintenancePlan:
    """One retained instance plus everything needed to repair it in place.

    Built by :func:`plan_maintenance`.  All repair state — the watermarks
    in ``base_seen``, the delta joins — is owned by this plan (and
    therefore by one consumer); the engine never hangs repair state off the
    shared base relations.  The joins and their indexes are built by the
    first repair, over the evaluated relations: a retained result that is
    never updated never pays for them, and the initial fixpoint does not
    maintain (or probe past) indexes only repairs use.
    """

    __slots__ = ("ctx", "instance", "deps", "call_args", "base_seen",
                 "_scope", "_joins", "_checks", "_answer_key", "_seed",
                 "_wave")

    def __init__(
        self,
        ctx,
        instance,
        deps: FrozenSet[PredKey],
        call_args: Sequence = (),
    ) -> None:
        self.ctx = ctx
        self.instance = instance
        self.deps = deps
        #: the canonical call this instance answers; selects (and, under
        #: context factoring, completes) the answer facts a repair reports
        self.call_args = list(call_args)
        #: per base dep: how far its inserts are absorbed, from before the
        #: evaluation reads it (none when nothing will be repaired)
        self.base_seen: Dict[PredKey, Watermark] = {}
        if instance.capabilities.maintain is None:
            for dep in deps:
                self.base_seen[dep] = Watermark(ctx.base_relation(*dep))
        self._scope = _RepairScope(instance.scope)
        #: seed predicate -> the delta joins a change to it starts, each as
        #: (head key, head arguments, executor, whether over-deletion
        #: follows it — not into magic heads); None until the first repair
        #: builds them
        self._joins: Optional[Dict[PredKey, List[tuple]]] = None
        #: head predicate -> [(rule, head-bound body executor)]
        self._checks: Dict[PredKey, List[PyTuple[Rule, BodyExecutor]]] = {}
        rewritten = instance.compiled.rewritten
        self._answer_key: PredKey = (
            rewritten.answer_pred, rewritten.answer_arity
        )
        #: a factored call's own seed fact (predicate key, tuple key): its
        #: context relation shrinks, but no rule derives the seed, so
        #: over-deletion must never take it
        self._seed: Optional[PyTuple[PredKey, object]] = None
        if rewritten.technique == "factoring":
            seed = Tuple(
                tuple(self.call_args[p] for p in rewritten.bound_positions)
            )
            self._seed = ((rewritten.magic_pred, len(seed.args)), seed.key())
        #: predicate -> changed tuples: what the running wave's seeds read
        self._wave: Dict[PredKey, List[Tuple]] = {}

    # -- bookkeeping -----------------------------------------------------------

    def _build_joins(self) -> None:
        """The delta joins and head-bound checks of every rule, each with
        its body ordered for the bindings it starts from, plus the indexes
        their probes need."""
        rewritten = self.instance.compiled.rewritten
        magic_names = {MAGIC_PREFIX + adorned for adorned in rewritten.origin}
        if rewritten.magic_pred is not None and rewritten.technique != "factoring":
            # (a factored context relation generates answers, so it shrinks)
            magic_names.add(rewritten.magic_pred)
        lookup_builtin = self.ctx.builtins.lookup
        self._joins = {}
        for rule in delta_rules(
            rewritten.rules,
            self.ctx.is_builtin,
            order=lambda rest, seed: order_body(
                rest, lookup_builtin, _vids(seed.args)
            ),
        ):
            seed, head = rule.body[0], rule.head
            self._joins.setdefault(seed.key, []).append((
                head.key,
                head.args,
                self._executor(rule.body, seed.args, seed=0),
                head.pred not in magic_names,
            ))
        for rule in rewritten.rules:
            body = order_body(rule.body, lookup_builtin, _vids(rule.head.args))
            self._checks.setdefault(rule.head.key, []).append(
                (rule, self._executor(body, rule.head.args))
            )

    def _executor(
        self, body: Sequence[Literal], bound_args, seed: int = -1
    ) -> BodyExecutor:
        """An executor for ``body``, which starts with the variables of
        ``bound_args`` bound; every probe it will make (the seed's list
        aside) gets an argument index on exactly the positions bound by
        then."""
        lookup_builtin = self.ctx.builtins.lookup
        bound = _vids(bound_args)
        local = self.instance.scope.local
        for position, literal in enumerate(body):
            if position != seed and lookup_builtin(*literal.key) is None:
                positions = [
                    index
                    for index, arg in enumerate(literal.args)
                    if all(var.vid in bound for var in arg.variables())
                ]
                relation = local.get(literal.key)
                if relation is None and literal.key in self.deps:
                    relation = self.ctx.base_relation(*literal.key)
                if positions and isinstance(relation, HashRelation):
                    relation.add_index(
                        ArgumentIndexSpec(literal.arity, positions)
                    )
            bound |= _vids(literal.args)
        # the seed reads the running wave's changed tuples of its predicate
        # (through the map, not the plan: no reference cycle)
        wave = self._wave
        return BodyExecutor(
            self._scope, body, self.instance.compiled.use_backjumping,
            {} if seed < 0 else {
                seed: lambda literal, env: ListTupleIterator(wave[literal.key])
            },
        )

    # -- the one mechanism -----------------------------------------------------

    def _waves(
        self,
        wave: Dict[PredKey, List[Tuple]],
        take: Callable[[PredKey, Tuple], Optional[Tuple]],
        shrinking: bool = False,
    ) -> None:
        """Push ``wave`` through the delta joins, wave after wave, until one
        carries nothing.  Each join seeded on a changed predicate runs once
        per wave, its seed reading the whole list, and its heads are
        collected before any is handed to ``take``, which returns the fact
        to carry into the next wave (or None).  ``shrinking`` skips joins
        into magic heads."""
        while wave:
            self._wave.clear()
            self._wave.update(wave)
            next_wave: Dict[PredKey, List[Tuple]] = {}
            for key in wave:
                for head_key, head_args, executor, shrinks in \
                        self._joins.get(key, ()):
                    if shrinking and not shrinks:
                        continue  # over-complete magic is sound
                    self.ctx.stats.rule_applications += 1
                    for fact in list(derive(
                        executor, head_args, BindEnv(), Trail()
                    )):
                        carried = take(head_key, fact)
                        if carried is not None:
                            next_wave.setdefault(head_key, []).append(carried)
            wave = next_wave

    def _derivable(self, key: PredKey, fact: Tuple) -> bool:
        """Does some rule derive ``fact`` from the current state?"""
        for rule, executor in self._checks.get(key, ()):
            self.ctx.stats.rule_applications += 1
            head_args = rule.head.args
            env = BindEnv()
            trail = Trail()
            if not unify_fact(head_args, env, fact.renamed().args, trail):
                continue
            for _ in executor.solutions(env, trail):
                # unifying may have specialised a non-ground fact: only a
                # derivation of the fact itself counts
                if fact.is_ground() or \
                        instantiate_head(head_args, env).key() == fact.key():
                    return True
        return False

    def _answer(self, fact: Tuple) -> Optional[Tuple]:
        """An answer-relation fact as the goal's caller sees it: completed
        with the bound constants under context factoring; None when it
        answers some other call (a different magic seed)."""
        call_args = self.call_args
        positions = self.instance.compiled.rewritten.answer_positions
        if positions is not None:
            full = list(call_args)
            for value, position in zip(fact.args, positions):
                full[position] = value
            return Tuple(tuple(full))
        if unify_fact(call_args, BindEnv(), fact.renamed().args, Trail()):
            return fact
        return None

    def _insert(self, key: PredKey, fact: Tuple, change: NetChange) -> bool:
        inserted = self.instance.scope.insert_fact(key[0], key[1], fact)
        if inserted and key == self._answer_key:
            answer = self._answer(fact)
            if answer is not None:
                change.arrive(answer)
        return inserted

    def _propagate(
        self, wave: Dict[PredKey, List[Tuple]], change: NetChange
    ) -> None:
        """Push ``wave`` — facts already in place, base or local — through
        the delta joins over the current state, inserting what they derive,
        until a wave derives nothing new.  A derivation that needs several
        new facts is found when the last of them is pushed, the others being
        in place."""
        self._waves(
            wave,
            lambda key, fact: fact if self._insert(key, fact, change) else None,
        )

    # -- insert repair ---------------------------------------------------------

    def apply_inserts(self, change: Optional[NetChange] = None) -> NetChange:
        """Absorb base-predicate inserts: seed a wave with the arrivals past
        every base dependency's watermark (advancing it) and propagate it.
        Returns ``change`` (a fresh one by default) with the answers that
        arrived folded in."""
        if change is None:
            change = NetChange()
        if self._joins is None:
            self._build_joins()
        wave: Dict[PredKey, List[Tuple]] = {}
        for dep, seen in self.base_seen.items():
            fresh = seen.arrivals()
            if fresh:
                wave[dep] = fresh
        self._propagate(wave, change)
        return change

    # -- delete repair (DRed) --------------------------------------------------

    def apply_deletes(
        self,
        pending: Dict[PredKey, List[Tuple]],
        change: Optional[NetChange] = None,
    ) -> NetChange:
        """DRed delete-rederive over the instance's retained local
        relations; ``pending`` maps each base predicate to the tuples this
        consumer has not yet repaired for.  Returns ``change`` (a fresh one
        by default) with the net effect on the answers folded in and the
        ``over_deleted``/``rederived`` counts added; raises
        :class:`DamageExceeded` when over-deletion would touch more than
        :data:`DAMAGE_THRESHOLD` of the derived facts."""
        if change is None:
            change = NetChange()
        if self._joins is None:
            self._build_joins()
        local = self.instance.scope.local
        total = sum(len(relation) for relation in local.values())
        budget = max(64, int(DAMAGE_THRESHOLD * total))

        # --- over-delete: collect everything a removed tuple supports ------
        # Nothing is deleted yet, so the joins see the local pre-state as it
        # stands, indexes and all; base deps get the pending tuples back.
        over: Dict[PredKey, Dict[object, Tuple]] = {}
        count = 0

        def doom(head_key: PredKey, fact: Tuple) -> Optional[Tuple]:
            nonlocal count
            stored = local[head_key].find(fact)
            if stored is None:
                return None
            doomed = over.setdefault(head_key, {})
            fact_key = stored.key()
            if fact_key in doomed or (head_key, fact_key) == self._seed:
                return None
            doomed[fact_key] = stored
            count += 1
            if count > budget:
                raise DamageExceeded()
            return stored

        self._scope.pre_state = {
            key: _PreState(self.ctx.base_relation(*key), tuples)
            for key, tuples in pending.items() if tuples
        }
        try:
            self._waves(
                {key: list(tuples) for key, tuples in pending.items()},
                doom, shrinking=True,
            )
        finally:
            self._scope.pre_state = {}
        for key, doomed in over.items():
            relation = local[key]
            for stored in doomed.values():
                relation.delete(stored)
                if key == self._answer_key:
                    answer = self._answer(stored)
                    if answer is not None:
                        change.leave(answer)

        # --- re-derive: one check per over-deleted fact, then the wave -----
        # A fact whose support is itself restored later is not missed: the
        # restored fact is pushed through the delta joins and derives it.
        restored: Dict[PredKey, List[Tuple]] = {}
        for key, doomed in over.items():
            for stored in doomed.values():
                if self._derivable(key, stored) and \
                        self._insert(key, stored, change):
                    restored.setdefault(key, []).append(stored)
        self._propagate(restored, change)
        change.over_deleted += count
        change.rederived += sum(
            1
            for key, doomed in over.items()
            for stored in doomed.values()
            if local[key].find(stored) is not None
        )
        return change


def _vids(args) -> Set[int]:
    return {var.vid for arg in args for var in arg.variables()}


def plan_maintenance(
    ctx,
    instance,
    exports: Dict[PredKey, tuple],
    module_deps: Optional[ModuleDeps] = None,
    call_args: Sequence = (),
) -> MaintenancePlan:
    """Wrap an instance in a :class:`MaintenancePlan`; repairs work only
    when ``instance.capabilities.maintain`` is None (docs/INTERNALS.md,
    "Capabilities").  ``plan.deps`` are the base relations the instance
    reads, a called module's through ``module_deps`` when provided: complete
    either way, since consumers that retain unmaintainable results (the
    memo cache's evict-on-update entries) still index them.  ``call_args``
    is the canonical call the instance is about to answer."""
    deps: Set[PredKey] = set()
    for key in instance.compiled.reads:
        exported = exports.get(key)
        if exported is None:
            deps.add(key)
        elif module_deps is not None:
            deps |= module_deps(exported[0])
    return MaintenancePlan(ctx, instance, frozenset(deps), call_args)
