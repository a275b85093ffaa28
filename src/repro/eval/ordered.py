"""Ordered Search: evaluation for left-to-right modularly stratified
programs (Section 5.4.1).

*"The principle of Ordered Search is that the computation is ordered by
'hiding' subgoals.  This is achieved by maintaining a 'context' that stores
subgoals in an ordered fashion, and that decides at each stage in the
evaluation, which subgoal to make available for use next ... the evaluation
must add a goal ('magic' fact) to the corresponding 'done' predicate when
(and only when) all answers to it have been generated."*

This implementation keeps the paper's two essential mechanisms — an ordered
context of subgoals and done-detection before negation/aggregation — in the
equivalent formulation of *subgoal-SCC completion*: subgoals are explored
depth-first (the context is the subgoal stack), mutually dependent subgoals
are detected with Tarjan-style lowlinks and iterated to a joint fixpoint,
and a subgoal is marked *done* exactly when its SCC completes.  A negated or
aggregated body literal may only consume a done subgoal; if it lands in the
current SCC the program is not left-to-right modularly stratified and
evaluation stops with an error, matching the paper's scope for the
technique.

Each subgoal's answers are generated once.  A subgoal whose first pass read
only base relations and done subgoals is done after that pass (nothing it
read can grow); only a subgoal that reached itself or an open subgoal is
iterated.  A call that a *done* subgoal subsumes opens no subgoal: the
caller scans the done subgoal's answers, and its own literal does the
filtering.  An open subgoal is never used that way — its answers are not
all there yet, which is exactly what negation and aggregation must not see.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..errors import StratificationError
from ..language.ast import (
    AggregateSelection,
    Aggregation,
    Literal,
    Rule,
    group_positions,
)
from ..relations import HashRelation, ListTupleIterator, Tuple
from ..terms import Arg, BindEnv, Trail, Var, rename_term, resolve, unify
from ..terms.unify import subsumes_all
from .aggregates import AggregateConstraint, fold_aggregate
from .context import LocalScope
from .join import fact_solutions, matches_any

PredKey = PyTuple[str, int]

_COMPLETE = 1 << 60  # lowlink value for done subgoals


class _Subgoal:
    """One entry of the context: a called predicate with its binding pattern."""

    __slots__ = ("pred", "arity", "pattern", "answers", "depth", "done", "constraints")

    def __init__(
        self,
        pred: str,
        arity: int,
        pattern: PyTuple[Arg, ...],
        depth: int,
        constraints: Sequence[AggregateConstraint],
    ) -> None:
        self.pred = pred
        self.arity = arity
        self.pattern = pattern
        self.answers = HashRelation(f"{pred}@{depth}", arity)
        self.depth = depth
        self.done = False
        self.constraints = list(constraints)

    def insert(self, fact: Tuple) -> bool:
        for constraint in self.constraints:
            if not constraint.admit(self.answers, fact):
                return False
        inserted = self.answers.insert(fact)
        if inserted:
            for constraint in self.constraints:
                constraint.record(self.answers, fact)
        return inserted


class OrderedSearchEvaluator:
    """Evaluates one module's rules with ordered subgoal completion."""

    def __init__(self, scope: LocalScope, compiled) -> None:
        self.scope = scope
        self.compiled = compiled
        self.rules_by_pred: Dict[PredKey, List[Rule]] = {}
        for rule in compiled.rewritten.rules:
            self.rules_by_pred.setdefault(rule.head.key, []).append(rule)
        self.selections: Dict[PredKey, List[AggregateSelection]] = {}
        for key, selection in compiled.constraints:
            self.selections.setdefault(key, []).append(selection)
        #: the argument positions a call to a predicate with selections may
        #: bind (see :func:`group_positions`)
        self.bindable: Dict[PredKey, FrozenSet[int]] = {
            key: group_positions(selections)
            for key, selections in self.selections.items()
        }
        self.memo: Dict[object, _Subgoal] = {}
        #: done subgoals with a non-ground pattern (a ground one subsumes
        #: only its own variants, and those hit the memo)
        self.done_general: Dict[PredKey, List[_Subgoal]] = {}
        self.stack: List[_Subgoal] = []
        self._version = 0  # bumps on every new answer anywhere

    # -- public entry -------------------------------------------------------------

    def solve_query(self, pred: str, call_args: Sequence[Arg]) -> None:
        """Evaluate the query subgoal to completion, publishing its answers
        into the instance's answer relation."""
        arity = len(call_args)
        subgoal, _ = self._solve(pred, tuple(call_args))
        assert subgoal.done
        for fact in subgoal.answers.scan():
            self.scope.insert_fact(pred, arity, fact)

    # -- subgoal machinery (the 'context') -------------------------------------------

    def _constraints_for(self, pred: str, arity: int) -> List[AggregateConstraint]:
        return [
            AggregateConstraint(selection)
            for selection in self.selections.get((pred, arity), ())
        ]

    def _solve(self, pred: str, pattern: PyTuple[Arg, ...]) -> PyTuple[_Subgoal, int]:
        """Returns (subgoal, lowlink): lowlink is the shallowest context
        depth this subgoal (transitively) depends on; _COMPLETE when done.

        With a profiler installed, every call (memo hits included) counts
        one ``ordered`` subgoal activation; time is inclusive of callees."""
        obs = self.scope.ctx.obs
        if obs is None:
            return self._solve_subgoal(pred, pattern)
        token = obs.begin_subgoal("ordered", pred, len(pattern))
        try:
            return self._solve_subgoal(pred, pattern)
        finally:
            obs.end_subgoal(token)

    def _solve_subgoal(
        self, pred: str, pattern: PyTuple[Arg, ...]
    ) -> PyTuple[_Subgoal, int]:
        if self.scope.ctx.limits is not None:
            self.scope.ctx.limits.check(self.scope.ctx.stats)
        pred_key = (pred, len(pattern))
        bindable = self.bindable.get(pred_key)
        if bindable is not None:
            # the selection must see every candidate of the group before a
            # bound cost or witness filters them: call on the group alone
            # and leave the other bindings to the caller's scan
            pattern = tuple(
                arg if position in bindable else Var()
                for position, arg in enumerate(pattern)
            )
        key = (pred, Tuple(pattern).key())
        subgoal = self.memo.get(key)
        if subgoal is not None:
            if subgoal.done:
                return subgoal, _COMPLETE
            return subgoal, subgoal.depth
        for general in self.done_general.get(pred_key, ()):
            if subsumes_all(general.pattern, pattern):
                return general, _COMPLETE

        subgoal = _Subgoal(
            pred,
            len(pattern),
            pattern,
            len(self.stack),
            self._constraints_for(pred, len(pattern)),
        )
        self.memo[key] = subgoal
        self.stack.append(subgoal)
        self.scope.ctx.stats.subgoals += 1

        lowlink = self._apply_rules(subgoal)
        if lowlink < subgoal.depth:
            return subgoal, lowlink
        if lowlink != _COMPLETE:
            # root of its subgoal SCC: iterate the whole SCC to fixpoint,
            # then mark every member done (the paper's 'done' facts)
            while True:
                if self.scope.ctx.limits is not None:
                    self.scope.ctx.limits.checkpoint(self.scope.ctx.stats)
                version = self._version
                for member in list(self.stack[subgoal.depth :]):
                    self._apply_rules(member)
                if self._version == version:
                    break
        # else the one pass read base relations and done subgoals only, so
        # it is alone on top of the context with every answer generated
        for member in self.stack[subgoal.depth :]:
            member.done = True
            if not all(arg.is_ground() for arg in member.pattern):
                self.done_general.setdefault(
                    (member.pred, member.arity), []
                ).append(member)
        del self.stack[subgoal.depth :]
        return subgoal, _COMPLETE

    def _apply_rules(self, subgoal: _Subgoal) -> int:
        """One pass over the subgoal's rules; returns the minimum lowlink
        reached through its body calls."""
        lowlink = _COMPLETE
        for rule in self.rules_by_pred.get((subgoal.pred, subgoal.arity), ()):
            mapping: Dict[int, Var] = {}
            head_args = tuple(rename_term(arg, mapping) for arg in rule.head.args)
            body = tuple(
                Literal(
                    item.pred,
                    tuple(rename_term(arg, mapping) for arg in item.args),
                    item.negated,
                )
                for item in rule.body
            )
            aggregates = tuple(
                (
                    position,
                    Aggregation(
                        aggregation.function,
                        rename_term(aggregation.expr, mapping),
                    ),
                )
                for position, aggregation in rule.head_aggregates
            )
            env = BindEnv()
            trail = Trail()
            pattern_mapping: Dict[int, Var] = {}
            pattern_args = tuple(
                rename_term(arg, pattern_mapping) for arg in subgoal.pattern
            )
            if not all(
                unify(head_arg, env, pattern_arg, env, trail)
                for pattern_arg, head_arg in zip(pattern_args, head_args)
            ):
                trail.undo_to(0)
                continue
            cell = [_COMPLETE]
            if aggregates:
                lowlink = min(
                    lowlink,
                    self._apply_aggregate_rule(
                        subgoal, head_args, body, aggregates, env, trail, cell
                    ),
                )
            else:
                for _ in self._body_solutions(body, 0, env, trail, cell):
                    self.scope.ctx.stats.inferences += 1
                    fact = Tuple(tuple(resolve(arg, env) for arg in head_args))
                    if subgoal.insert(fact):
                        self._version += 1
                lowlink = min(lowlink, cell[0])
            trail.undo_to(0)
        return lowlink

    def _apply_aggregate_rule(
        self, subgoal, head_args, body, aggregates, env, trail, cell
    ) -> int:
        """Grouped aggregation: only legal over *done* subgoals (the paper's
        guard: rules with grouping wait for their 'done' literals)."""
        positions = dict(aggregates)
        plain = [p for p in range(len(head_args)) if p not in positions]
        groups: Dict[tuple, Dict[int, list]] = {}
        seen: Dict[tuple, tuple] = {}
        for _ in self._body_solutions(body, 0, env, trail, cell, require_done=True):
            self.scope.ctx.stats.inferences += 1
            values = tuple(resolve(head_args[p], env) for p in plain)
            group_key = tuple(v.ground_key() for v in values)
            seen[group_key] = values
            bucket = groups.setdefault(group_key, {})
            for position, aggregation in positions.items():
                bucket.setdefault(position, []).append(
                    resolve(aggregation.expr, env)
                )
        for group_key, values in seen.items():
            args: List[Optional[Arg]] = [None] * len(head_args)
            for position, value in zip(plain, values):
                args[position] = value
            for position, aggregation in positions.items():
                args[position] = fold_aggregate(
                    aggregation.function, groups[group_key].get(position, [])
                )
            if subgoal.insert(Tuple(tuple(args))):
                self._version += 1
        return cell[0]

    # -- body resolution ----------------------------------------------------------------

    def _body_solutions(
        self,
        body: Sequence[Literal],
        position: int,
        env: BindEnv,
        trail: Trail,
        cell: List[int],
        require_done: bool = False,
    ) -> Iterator[None]:
        if position == len(body):
            yield None
            return
        literal = body[position]
        builtin = self.scope.ctx.builtins.lookup(literal.pred, literal.arity)

        if builtin is not None:
            mark = trail.mark()
            for _ in builtin.impl(literal.args, env, trail):
                yield from self._body_solutions(
                    body, position + 1, env, trail, cell, require_done
                )
            trail.undo_to(mark)
            return

        callee = None
        if literal.key in self.rules_by_pred:
            pattern = tuple(resolve(arg, env) for arg in literal.args)
            callee, lowlink = self._solve(literal.pred, pattern)
            cell[0] = min(cell[0], lowlink)
            if (literal.negated or require_done) and not callee.done:
                raise StratificationError(
                    f"subgoal {literal.pred}/{literal.arity} is needed "
                    f"negated/aggregated before it is done: the program is "
                    f"not left-to-right modularly stratified"
                )
            relation = callee.answers
        else:
            # base relation (or another module's export)
            relation = self.scope.relation(literal.pred, literal.arity)
        if literal.negated:
            if not matches_any(relation, literal.args, env, trail):
                yield from self._body_solutions(
                    body, position + 1, env, trail, cell, require_done
                )
            return
        cursor = relation.scan(literal.args, env)
        if callee is not None and not callee.done:
            # a snapshot: an open callee's answers may grow while the rest
            # of the body is being solved
            cursor = ListTupleIterator(list(cursor))
        for _ in fact_solutions(cursor, literal.args, env, trail):
            yield from self._body_solutions(
                body, position + 1, env, trail, cell, require_done
            )
