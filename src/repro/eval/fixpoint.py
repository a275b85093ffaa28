"""Materialized (bottom-up fixpoint) evaluation.

Section 5.3: *"The variants of materialization are all bottom-up fixpoint
evaluation methods ... The evaluation part evaluates each rewritten rule once
in each iteration, and performs some updates to the delta relations at the
end of the iteration.  An evaluation terminates when an iteration produces no
new facts."*

Three strategies (Section 4.2):

* **BSN** — Basic Semi-Naive: one delta window per recursive predicate,
  advanced at a global iteration barrier.
* **PSN** — Predicate Semi-Naive: rules are grouped by head predicate and the
  groups processed in (approximate) topological order; a predicate's delta
  window advances immediately after its group runs, so facts derived early
  in an iteration are visible to groups processed later in the *same*
  iteration — fewer iterations for programs with many mutually recursive
  predicates (benchmark E4).
* **naive** — the rederive-everything baseline (benchmark E2).

Every version is a :class:`~repro.rewriting.seminaive.DeltaRule` whose
seed reads the last iteration's arrivals ``[prev, cur)`` of a relation
(Section 3.2's marks); other recursive literals read ``[0, cur)`` before
the seed and ``[0, prev)`` after it.  The evaluator is a generator yielding
control after every iteration, which is precisely the hook lazy evaluation
(Section 5.4.3) and the inter-module answer protocol (Section 5.6) need.
A save-module plan (Section 5.4.2) also carries *resumption* versions: on a
later call each is seeded with what arrived at a relation outside the SCC
since its last run (the tuples past a :class:`~repro.relations.Watermark`:
the relation is not the SCC's to mark), which is how new magic facts and
base inserts reach facts derived by earlier calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple as PyTuple

from ..errors import EvaluationError
from ..language.ast import Literal, Rule
from ..relations import (
    GeneratorTupleIterator,
    ListTupleIterator,
    MarkedRelation,
    TupleIterator,
    Watermark,
)
from ..rewriting.seminaive import DeltaRule, delta_rules, seminaive_rewrite
from ..terms import BindEnv, Trail
from .aggregates import fold_groups
from .context import LocalScope
from .join import BodyExecutor, Source, derive, instantiate_head

PredKey = PyTuple[str, int]


@dataclass
class SCCPlan:
    """Everything needed to evaluate one strongly connected component: the
    compile-time half of Section 5.1's module structure."""

    preds: FrozenSet[PredKey]
    recursive: Set[PredKey]
    rules: List[Rule]
    once_rules: List[DeltaRule] = field(default_factory=list)
    delta_rules: List[DeltaRule] = field(default_factory=list)
    #: save-module resumption versions (Section 5.4.2), seeded at every
    #: positive position of a relation outside the SCC's recursion
    resume_rules: List[DeltaRule] = field(default_factory=list)

    @staticmethod
    def build(
        preds: FrozenSet[PredKey],
        recursive: Set[PredKey],
        rules: List[Rule],
        is_builtin,
        strategy: str = "bsn",
        resumable: bool = False,
    ) -> "SCCPlan":
        once_rules, versions = seminaive_rewrite(
            rules, recursive, is_builtin, naive=strategy == "naive"
        )
        resume_rules = []
        if resumable:
            outside = {
                literal.key
                for rule in rules
                for literal in rule.body
                if literal.key not in recursive
            }
            resume_rules = delta_rules(rules, is_builtin, outside)
        return SCCPlan(
            preds, recursive, rules, once_rules, versions, resume_rules
        )


def _arrivals(seen: Watermark) -> Source:
    """Resumption's seed source over one relation: what arrived since the
    SCC last ran.  A seed keeps its written place, so it is probed once per
    binding of the literals before it: a probe one of the relation's own
    indexes serves reads that index, kept to the arrivals; any other reads
    the arrivals whole."""
    relation, arrived = seen.relation, seen.arrivals()
    ids = {id(tup) for tup in arrived}
    specs = getattr(relation, "index_specs", ())

    def scan(literal: Literal, env: BindEnv) -> TupleIterator:
        args = literal.args
        if arrived and any(
            spec.key_for_probe(args, env) is not None for spec in specs
        ):
            return GeneratorTupleIterator(
                tup for tup in relation.scan(args, env) if id(tup) in ids
            )
        return ListTupleIterator(arrived)

    return scan


def _window(scope: LocalScope, low: Optional[Dict], high: Dict) -> Source:
    """A read of a literal's relation between two of an evaluator's live
    mark maps: ``[low[pred], high[pred])``, from the start without
    ``low``."""

    def scan(literal: Literal, env: BindEnv) -> TupleIterator:
        key = literal.key
        return scope.relation(literal.pred, literal.arity).scan(
            literal.args, env, low[key] if low is not None else 0, high[key]
        )

    return scan


class SCCEvaluator:
    """Runs one SCC to fixpoint (resumably, for the save-module facility)."""

    def __init__(
        self,
        scope: LocalScope,
        plan: SCCPlan,
        strategy: str = "bsn",
        use_backjumping: bool = True,
    ) -> None:
        if strategy not in ("bsn", "psn", "naive"):
            raise EvaluationError(f"unknown fixpoint strategy {strategy!r}")
        self.scope = scope
        self.plan = plan
        self.strategy = strategy
        self._started = False
        #: lazy SCC label for profiling spans ("pred/arity,...")
        self._label: Optional[str] = None
        #: per resumption seed predicate: how far this SCC has read its
        #: relation, as of the last run's start
        self._seen: Dict[PredKey, Watermark] = {}
        # the executors are the scope's: a later evaluator of the plan over
        # the same scope (a call skeleton's next call, a save-module
        # stratum recomputed) reuses them, and the maps they read, which
        # its first run sets before they are read
        key = (id(plan), strategy, use_backjumping)
        prepared = scope.prepared.get(key)
        if prepared is None:
            prepared = scope.prepared[key] = self._prepare(use_backjumping)
        (_, self.prev, self.cur, self._fresh, self._once_executors,
         self._resume_executors, self._groups) = prepared

    def _prepare(self, use_backjumping: bool) -> tuple:
        """The plan's executors over the scope, with the maps they read:
        per recursive predicate, the current delta window ``[prev, cur)``,
        and per resumption seed predicate, what the running resumption
        reads.  The plan comes first, so that it outlives the entry and its
        ``id`` keys nothing else."""
        scope, plan = self.scope, self.plan
        for pred in plan.preds:
            scope.declare_local(pred[0], pred[1])
        prev: Dict[PredKey, int] = {}
        cur: Dict[PredKey, int] = {}
        fresh: Dict[PredKey, Source] = {}
        # the sources close over the mark maps, never over the evaluator:
        # executors that pointed back at it would make every evaluator a
        # reference cycle, left to the garbage collector
        upto_cur = _window(scope, None, cur)
        upto_prev = _window(scope, None, prev)

        def executors(rules, seed: Optional[Source] = None):
            out = []
            for rule in rules:
                sources = {
                    position: upto_cur if position < rule.seed else upto_prev
                    for position in rule.recursive
                }
                if seed is not None and rule.seed >= 0:
                    sources[rule.seed] = seed
                out.append((rule, BodyExecutor(
                    scope, rule.body, use_backjumping, sources
                )))
            return out

        once = executors(plan.once_rules)
        resume = executors(
            plan.resume_rules,
            lambda literal, env: fresh[literal.key](literal, env),
        )
        # the seed of a delta version: the last iteration's new facts
        delta = executors(plan.delta_rules, _window(scope, prev, cur))
        groups = (
            self._group_by_head(delta) if self.strategy == "psn"
            else [(None, delta)]
        )
        return plan, prev, cur, fresh, once, resume, groups

    def _relation(self, pred: PredKey) -> MarkedRelation:
        relation = self.scope.local[pred]
        assert isinstance(relation, MarkedRelation)
        return relation

    def _group_by_head(self, executors):
        """PSN: group rules by head predicate, ordered so that predicates
        feeding others within the SCC come first where the (cyclic) positive
        dependencies allow."""
        by_head: Dict[PredKey, list] = {}
        for rule, executor in executors:
            by_head.setdefault(rule.head.key, []).append((rule, executor))
        # approximate topological order: sort by number of in-SCC body
        # dependencies, then by first appearance (stable)
        order: List[PredKey] = []
        appearance = {key: index for index, key in enumerate(by_head)}

        def in_scc_deps(key: PredKey) -> int:
            count = 0
            for rule, _ in by_head[key]:
                for literal in rule.body:
                    if literal.key in by_head and literal.key != key:
                        count += 1
            return count

        order = sorted(by_head, key=lambda key: (in_scc_deps(key), appearance[key]))
        return [(key, by_head[key]) for key in order]

    # -- evaluation ---------------------------------------------------------------

    def _obs_label(self) -> str:
        label = self._label
        if label is None:
            label = self._label = ",".join(
                f"{name}/{arity}" for name, arity in sorted(self.plan.preds)
            )
        return label

    def _apply(self, rule: DeltaRule, executor: BodyExecutor) -> None:
        """Evaluate one rule version, inserting derived heads."""
        apply_rule(self.scope, rule, executor)

    def iterations(self) -> Iterator[int]:
        """Run to fixpoint, yielding the number of new facts after each
        iteration (the lazy-evaluation suspension points, Section 5.4.3).
        Calling it again after new facts were seeded resumes incrementally
        (the save-module facility, Section 5.4.2)."""
        yield self._seed()
        yield from self._delta_loop()

    def _start(self) -> None:
        """The first run's pre-iteration work: the once rules."""
        for rule, executor in self._once_executors:
            self._apply(rule, executor)

    def _seed(self) -> int:
        """Apply the once rules (first call) or the resumption versions (a
        later save-module call), set the initial delta windows, and return
        the number of facts present — the pre-iteration half of one
        fixpoint run."""
        obs = self.scope.ctx.obs
        seed_started = obs.begin_span() if obs is not None else None
        if not self._started:
            self._started = True
            for pred in self.plan.recursive:
                self.prev[pred] = 0
            # the first run reads each resumption seed's relation whole
            for rule in self.plan.resume_rules:
                seed = rule.body[rule.seed]
                relation = self.scope.relation(seed.pred, seed.arity)
                self._seen[seed.key] = Watermark(relation)
            self._start()
        else:
            # resumption (save-module, Section 5.4.2): earlier SCCs' and
            # base relations may have grown since this SCC's last fixpoint;
            # the resumption versions pair their *new* facts with this SCC's
            # existing facts — no derivation is repeated, because each
            # version's seed reads only the arrivals past its watermark (an
            # instance reading a relation that numbers no insertions is
            # outdated instead of resumed)
            self._fresh.update(
                (key, _arrivals(seen)) for key, seen in self._seen.items()
            )
            for rule, executor in self._resume_executors:
                self._apply(rule, executor)
        for pred in self.plan.recursive:
            self.cur[pred] = self._relation(pred).mark()
        produced = sum(
            self._relation(pred).count_since(0) for pred in self.plan.recursive
        )
        if obs is not None:
            obs.end_span(
                "fixpoint.seed", "eval", seed_started, scc=self._obs_label()
            )
        return produced

    def _delta_loop(self) -> Iterator[int]:
        """The iteration loop: run every rule group, advance the delta
        windows, stop when an iteration derives nothing new.  Naive
        versions have no seed, so they ignore the windows and rederive
        everything each time."""
        stats = self.scope.ctx.stats
        iteration_index = 0
        while True:
            if self.scope.ctx.limits is not None:
                self.scope.ctx.limits.checkpoint(stats)
            obs = self.scope.ctx.obs
            iteration_index += 1
            iteration_started = (
                obs.begin_iteration(self._obs_label(), iteration_index)
                if obs is not None
                else None
            )
            new_facts = 0
            for head_key, group in self._groups:
                for rule, executor in group:
                    self._apply(rule, executor)
                if self.strategy == "psn" and head_key is not None:
                    if head_key in self.plan.recursive:
                        relation = self._relation(head_key)
                        added = relation.count_since(self.cur[head_key])
                        if added:
                            new_facts += added
                            self.prev[head_key] = self.cur[head_key]
                            self.cur[head_key] = relation.mark()
            if self.strategy != "psn":
                for pred in self.plan.recursive:
                    relation = self._relation(pred)
                    added = relation.count_since(self.cur[pred])
                    new_facts += added
                    self.prev[pred] = self.cur[pred]
                    self.cur[pred] = relation.mark()
            stats.iterations += 1
            if obs is not None:
                obs.end_iteration(
                    self._obs_label(), iteration_index, new_facts,
                    iteration_started,
                )
            if new_facts == 0:
                return
            yield new_facts

    def run_to_completion(self) -> int:
        """Drive :meth:`iterations` to the fixpoint; returns total new facts."""
        return sum(self.iterations())


def apply_rule(
    scope: LocalScope,
    rule: DeltaRule,
    executor: BodyExecutor,
) -> None:
    """Evaluate one rule version against ``scope`` and insert the derived
    heads — for a grouping rule (``min(<C>)`` heads), one per group of the
    complete body; stratification guarantees the body's relations are
    complete then."""
    stats = scope.ctx.stats
    stats.rule_applications += 1
    obs = scope.ctx.obs
    entry = started = None
    if obs is not None:
        entry, started = obs.begin_rule(rule)
    env = BindEnv()
    trail = Trail()
    head = rule.head
    tracer = scope.ctx.tracer
    if rule.head_aggregates:
        facts = fold_groups(
            head.args, rule.head_aggregates, env,
            executor.solutions(env, trail), stats,
        )
        tracer = None
    else:
        facts = derive(executor, head.args, env, trail)
    for fact in facts:
        if tracer is not None:
            tracer.record(
                head.pred,
                f"{head.pred}{fact}",
                str(rule),
                tuple(
                    f"{literal.pred}{instantiate_head(literal.args, env)}"
                    for literal in rule.body
                    if not literal.negated
                    and not scope.ctx.is_builtin(literal.pred, literal.arity)
                ),
            )
        inserted = scope.insert_fact(head.pred, len(head.args), fact)
        if entry is not None:
            if inserted:
                entry.derived += 1
            else:
                entry.duplicates += 1
    trail.undo_to(0)
    if entry is not None:
        obs.end_rule(entry, started)
