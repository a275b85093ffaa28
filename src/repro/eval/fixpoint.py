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

Delta windows are realised with relation *marks* (Section 3.2): ``FULL``
scans ``[0, cur)``, ``DELTA`` scans ``[prev, cur)``, ``OLD`` scans
``[0, prev)``.  The evaluator is a generator yielding control after every
iteration, which is precisely the hook lazy evaluation (Section 5.4.3) and
the inter-module answer protocol (Section 5.6) need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from ..errors import EvaluationError
from ..language.ast import Rule
from ..relations import MarkedRelation
from ..rewriting.seminaive import (
    ScanKind,
    SNRule,
    ext_rewrite,
    naive_rewrite,
    seminaive_rewrite,
)
from ..terms import BindEnv, Trail, resolve
from .aggregates import fold_aggregate
from .context import LocalScope
from .join import BodyExecutor, instantiate_head

PredKey = PyTuple[str, int]


@dataclass
class SCCPlan:
    """Everything needed to evaluate one strongly connected component: the
    compile-time half of Section 5.1's module structure."""

    preds: FrozenSet[PredKey]
    recursive: Set[PredKey]
    rules: List[Rule]
    once_rules: List[SNRule] = field(default_factory=list)
    delta_rules: List[SNRule] = field(default_factory=list)
    #: local predicates of earlier SCCs this one reads
    external: Set[PredKey] = field(default_factory=set)
    #: cross-call delta versions (save-module resumption, Section 5.4.2)
    ext_rules: List[SNRule] = field(default_factory=list)

    @staticmethod
    def build(
        preds: FrozenSet[PredKey],
        recursive: Set[PredKey],
        rules: List[Rule],
        is_builtin,
        strategy: str = "bsn",
        external: Optional[Set[PredKey]] = None,
    ) -> "SCCPlan":
        rewriter = naive_rewrite if strategy == "naive" else seminaive_rewrite
        once_rules, delta_rules = rewriter(rules, recursive, is_builtin)
        external = set(external or ())
        ext_rules = ext_rewrite(rules, recursive, external, is_builtin)
        return SCCPlan(
            preds, recursive, rules, once_rules, delta_rules, external, ext_rules
        )


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
        #: per recursive predicate: [prev, cur) is the current delta window
        self.prev: Dict[PredKey, int] = {}
        self.cur: Dict[PredKey, int] = {}
        self._started = False
        #: lazy SCC label for profiling spans ("pred/arity,...")
        self._label: Optional[str] = None
        for pred in plan.preds:
            scope.declare_local(pred[0], pred[1])
        self._once_executors = [
            (rule, BodyExecutor(scope, rule.body, use_backjumping))
            for rule in plan.once_rules
        ]
        self._ext_executors = [
            (rule, BodyExecutor(scope, rule.body, use_backjumping))
            for rule in plan.ext_rules
        ]
        #: per external predicate: the mark up to which this SCC has consumed
        #: its contents (advanced at the end of every run)
        self._ext_seen: Dict[PredKey, int] = {}
        delta = [
            (rule, BodyExecutor(scope, rule.body, use_backjumping))
            for rule in plan.delta_rules
        ]
        if strategy == "psn":
            self._groups = self._group_by_head(delta)
        else:
            self._groups = [(None, delta)]

    # -- delta windows -----------------------------------------------------------

    def _relation(self, pred: PredKey) -> MarkedRelation:
        relation = self.scope.local[pred]
        assert isinstance(relation, MarkedRelation)
        return relation

    def _ranges(self, pred: PredKey, kind: ScanKind):
        if kind is ScanKind.EXT_DELTA:
            return (self._ext_seen.get(pred, 0), None)
        if pred not in self.plan.recursive:
            return None
        if kind is ScanKind.FULL:
            return (0, self.cur[pred])
        if kind is ScanKind.DELTA:
            return (self.prev[pred], self.cur[pred])
        if kind is ScanKind.OLD:
            return (0, self.prev[pred])
        return None

    def _external_relation(self, pred: PredKey) -> Optional[MarkedRelation]:
        relation = self.scope.local.get(pred)
        return relation if isinstance(relation, MarkedRelation) else None

    def _advance_ext_seen(self) -> None:
        for pred in self.plan.external:
            relation = self._external_relation(pred)
            if relation is not None:
                self._ext_seen[pred] = relation.mark()

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
                for item in rule.body:
                    if item.literal.key in by_head and item.literal.key != key:
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

    def _apply(self, rule: SNRule, executor: BodyExecutor) -> None:
        """Evaluate one semi-naive rule version, inserting derived heads."""
        apply_rule(self.scope, rule, executor, self._ranges)

    def iterations(self) -> Iterator[int]:
        """Run to fixpoint, yielding the number of new facts after each
        iteration (the lazy-evaluation suspension points, Section 5.4.3).
        Calling it again after new facts were seeded resumes incrementally
        (the save-module facility, Section 5.4.2)."""
        yield self._seed()
        if self.strategy == "naive":
            yield from self._naive_loop()
            self._advance_ext_seen()
            return
        yield from self._delta_loop()

    def _seed(self) -> int:
        """Apply the once rules (first call) or the cross-call delta versions
        (resumption), set the initial delta windows, and return the number of
        facts present — the pre-iteration half of one fixpoint run."""
        obs = self.scope.ctx.obs
        seed_started = obs.begin_span() if obs is not None else None
        if not self._started:
            self._started = True
            for pred in self.plan.recursive:
                self.prev[pred] = 0
            for rule, executor in self._once_executors:
                self._apply(rule, executor)
        else:
            # resumption (save-module, Section 5.4.2): predicates of earlier
            # SCCs may have grown since this SCC's last fixpoint; the
            # cross-call delta versions pair their *new* facts with this
            # SCC's existing facts — no derivation is repeated, because each
            # version restricts one literal to facts not yet consumed
            for rule, executor in self._ext_executors:
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
        """The BSN/PSN iteration loop: run every delta-rule group, advance
        the delta windows, stop when an iteration derives nothing new."""
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
                self._advance_ext_seen()
                return
            yield new_facts

    def _naive_loop(self) -> Iterator[int]:
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
            marks = {
                pred: self._relation(pred).mark() for pred in self.plan.recursive
            }
            for rule, executor in self._groups[0][1]:
                self._apply(rule, executor)
            stats.iterations += 1
            new_facts = sum(
                self._relation(pred).count_since(marks[pred])
                for pred in self.plan.recursive
            )
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


def apply_rule(scope: LocalScope, rule: SNRule, executor: BodyExecutor, ranges) -> None:
    """Evaluate one semi-naive rule version against ``scope``, inserting
    derived heads.  ``ranges(pred, kind)`` maps each body literal's scan kind
    to a mark window (or None for the full extent)."""
    stats = scope.ctx.stats
    stats.rule_applications += 1
    obs = scope.ctx.obs
    entry = started = None
    if obs is not None:
        entry, started = obs.begin_rule(rule)
    env = BindEnv()
    trail = Trail()
    if rule.head_aggregates:
        _apply_aggregate(scope, rule, executor, env, trail, ranges)
        if entry is not None:
            obs.end_rule(entry, started)
        return
    head = rule.head
    tracer = scope.ctx.tracer
    for _ in executor.solutions(env, trail, ranges):
        stats.inferences += 1
        fact = instantiate_head(head.args, env)
        if tracer is not None:
            tracer.record(
                head.pred,
                f"{head.pred}{fact}",
                str(rule),
                tuple(
                    f"{item.literal.pred}"
                    f"{instantiate_head(item.literal.args, env)}"
                    for item in rule.body
                    if not item.literal.negated
                    and not scope.ctx.is_builtin(
                        item.literal.pred, item.literal.arity
                    )
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


def _apply_aggregate(scope: LocalScope, rule: SNRule, executor: BodyExecutor, env, trail, ranges):
    """A grouping rule (``min(<C>)`` heads): enumerate the complete body,
    group by the non-aggregated head arguments, emit one fact per group.
    Stratification guarantees the body's relations are complete here."""
    stats = scope.ctx.stats
    aggregates = dict(rule.head_aggregates)
    plain_positions = [
        position
        for position in range(len(rule.head.args))
        if position not in aggregates
    ]
    groups: Dict[tuple, Dict[int, list]] = {}
    keys_seen: Dict[tuple, tuple] = {}
    for _ in executor.solutions(env, trail, ranges):
        stats.inferences += 1
        plain_values = tuple(
            resolve(rule.head.args[position], env)
            for position in plain_positions
        )
        if not all(value.is_ground() for value in plain_values):
            raise EvaluationError(
                f"non-ground grouping arguments in {rule.head.pred}"
            )
        group_key = tuple(value.ground_key() for value in plain_values)
        keys_seen[group_key] = plain_values
        per_position = groups.setdefault(group_key, {})
        for position, aggregation in aggregates.items():
            value = resolve(aggregation.expr, env)
            per_position.setdefault(position, []).append(value)
    trail.undo_to(0)

    for group_key, plain_values in keys_seen.items():
        args: List = [None] * len(rule.head.args)
        for position, value in zip(plain_positions, plain_values):
            args[position] = value
        for position, aggregation in aggregates.items():
            args[position] = fold_aggregate(
                aggregation.function, groups[group_key].get(position, [])
            )
        from ..relations import Tuple as RelTuple

        scope.insert_fact(
            rule.head.pred, len(args), RelTuple(tuple(args))
        )
