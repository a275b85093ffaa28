"""The evaluation context: relation name space, builtins, statistics.

One :class:`EvalContext` backs a session: it owns the *base* relations
(facts consulted from text files or inserted through the imperative API),
the builtin registry, and a chain of *resolvers* through which the module
manager exposes exported predicates as relations (Section 5.6: every
predicate, base or derived, presents the same scan interface).

Module evaluation happens in a :class:`LocalScope` layered on top: the
rewritten program's internal predicates (adorned, magic, supplementary)
live in per-invocation relations that are discarded when the call ends
(Section 5.4.2's default) or retained by the save-module facility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple as PyTuple

from ..builtins import default_registry
from ..errors import EvaluationError
from ..relations import DuplicatePolicy, HashRelation, Relation, Tuple
from .aggregates import AggregateConstraint

PredKey = PyTuple[str, int]

#: a resolver maps (name, arity) to a Relation or None (not mine)
Resolver = Callable[[str, int], Optional[Relation]]


@dataclass
class EvalStats:
    """Run-time counters; the benchmarks report these alongside wall time."""

    inferences: int = 0  # successful rule-body solutions (facts derived, pre-dup)
    facts_inserted: int = 0  # net new facts
    duplicates: int = 0  # derivations rejected as duplicates/subsumed
    iterations: int = 0  # fixpoint iterations completed
    rule_applications: int = 0  # semi-naive rule evaluations
    subgoals: int = 0  # magic facts / subqueries generated
    module_calls: int = 0  # inter-module calls set up

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


class EvalContext:
    """Session-global evaluation state."""

    def __init__(self) -> None:
        self.base_relations: Dict[PredKey, Relation] = {}
        self.builtins = default_registry()
        self.resolvers: List[Resolver] = []
        self.stats = EvalStats()
        #: optional DerivationTracer (the Explanation tool); None = off
        self.tracer = None
        #: optional ResourceLimits guarding the current evaluation; None = off
        self.limits = None
        #: optional observability hook (a repro.obs Observer); None = off.
        #: Every instrumentation site guards with `if ctx.obs is not None`,
        #: so a session that never profiles pays one branch per site.
        self.obs = None
        #: optional cross-query answer cache (a repro.eval.memo.MemoCache);
        #: None = off.  Consulted by ExportedRelation.scan.
        self.memo = None
        #: optional live-query registry (a repro.live.LiveViewManager);
        #: None = off.  Both hear every commit through :meth:`notify_insert`
        #: / :meth:`notify_delete`: memo repairs lazily at lookup, live views
        #: eagerly, pushing the answer-set difference to subscribers.
        self.live = None
        #: the push backend's session-resident interned bases (a
        #: repro.compilemod.push.PushState), built by the first pushed run;
        #: inserts reach it through the relations' insertion numbers (a
        #: ``repro.relations.Watermark`` per copy), deletes through
        #: :meth:`notify_delete`
        self.push = None

    def notify_insert(self, key: PredKey) -> None:
        """One committed insert batch on base predicate ``key``."""
        if self.memo is not None:
            self.memo.on_insert(key)
        if self.live is not None:
            self.live.on_insert(key)

    def notify_delete(self, key: PredKey, tup: Tuple) -> None:
        """One committed delete of ``tup`` from base predicate ``key``."""
        if self.push is not None:
            self.push.on_delete(key, tup)
        if self.memo is not None:
            self.memo.on_delete(key, tup)
        if self.live is not None:
            self.live.on_delete(key, tup)

    # -- relation resolution ---------------------------------------------------

    def add_resolver(self, resolver: Resolver) -> None:
        """Resolvers (e.g. the module manager) are consulted in order before
        falling back to base relations."""
        self.resolvers.append(resolver)

    def register_base(self, relation: Relation) -> None:
        key = (relation.name, relation.arity)
        if key in self.base_relations:
            raise EvaluationError(
                f"base relation {relation.name}/{relation.arity} already exists"
            )
        self.base_relations[key] = relation

    def base_relation(
        self, name: str, arity: int, create: bool = True
    ) -> Relation:
        key = (name, arity)
        relation = self.base_relations.get(key)
        if relation is None:
            if not create:
                raise EvaluationError(f"unknown relation {name}/{arity}")
            relation = HashRelation(name, arity)
            self.base_relations[key] = relation
        return relation

    def resolve(self, name: str, arity: int) -> Relation:
        """The relation a literal scans, whatever defines it (Section 5.6)."""
        for resolver in self.resolvers:
            relation = resolver(name, arity)
            if relation is not None:
                return relation
        return self.base_relation(name, arity)

    def is_builtin(self, name: str, arity: int) -> bool:
        return self.builtins.is_builtin(name, arity)


class LocalScope:
    """Relation namespace for one module invocation.

    Lookup order: this scope's local relations (the rewritten program's
    derived predicates), then the session context (other modules' exports,
    base relations).  Inserts of derived facts go through
    :meth:`insert_fact`, which applies aggregate-selection constraints
    (Section 5.5.2).
    """

    def __init__(
        self,
        ctx: EvalContext,
        multiset_preds: Optional[set] = None,
    ) -> None:
        self.ctx = ctx
        self.local: Dict[PredKey, HashRelation] = {}
        self.constraints: Dict[PredKey, List[AggregateConstraint]] = {}
        self.multiset_preds = multiset_preds or set()

    # -- relations ---------------------------------------------------------------

    def declare_local(self, name: str, arity: int) -> HashRelation:
        key = (name, arity)
        relation = self.local.get(key)
        if relation is None:
            policy = (
                DuplicatePolicy.MULTISET
                if name in self.multiset_preds
                else DuplicatePolicy.SET
            )
            relation = HashRelation(name, arity, policy=policy)
            self.local[key] = relation
        return relation

    def is_local(self, name: str, arity: int) -> bool:
        return (name, arity) in self.local

    def relation(self, name: str, arity: int) -> Relation:
        local = self.local.get((name, arity))
        if local is not None:
            return local
        return self.ctx.resolve(name, arity)

    # -- constrained insertion (aggregate selections) ------------------------------

    def add_constraint(
        self, name: str, arity: int, constraint: AggregateConstraint
    ) -> None:
        self.constraints.setdefault((name, arity), []).append(constraint)

    def insert_fact(self, name: str, arity: int, tup: Tuple) -> bool:
        """Insert a derived fact into a local relation, enforcing any
        aggregate selections declared for the predicate.

        Also the evaluation-wide resource choke point: every derived fact —
        fixpoint, compiled, or ordered-search — passes through here, so the
        active :class:`~repro.eval.limits.ResourceLimits` guard (if any) is
        consulted per insertion and limit overruns surface mid-iteration."""
        if self.ctx.limits is not None:
            self.ctx.limits.check(self.ctx.stats)
        relation = self.declare_local(name, arity)
        constraints = self.constraints.get((name, arity), ())
        for constraint in constraints:
            if not constraint.admit(relation, tup):
                self.ctx.stats.duplicates += 1
                return False
        inserted = relation.insert(tup)
        if inserted:
            self.ctx.stats.facts_inserted += 1
            for constraint in constraints:
                constraint.record(relation, tup)
        else:
            self.ctx.stats.duplicates += 1
        return inserted
