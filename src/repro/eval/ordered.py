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

The SCC of an iterated subgoal is evaluated *semi-naively* (Section 5.1: a
rule structure built once, every derivation made once), by the runner the
fixpoint, save-module resumption and maintenance share:
:class:`~repro.eval.join.BodyExecutor`, each body position reading a
*source*.  A subgoal's rules are **prepared** on its first pass — renamed
apart, the head unified with the call pattern, every positive or negated
literal of a predicate this module defines given a source that calls its
subgoal — and every later pass runs the prepared rules.  A prepared rule
whose run read only base relations and done subgoals is never run again.
The others remember a *stamp*, the clock when their previous run began.  A
run joins what existed when it began (``began``) — what arrives while it
runs is the next run's — and, of that, only what the previous run could
not have.

A callee's source records the lowlink its call returned, indexes the probe
a more general subgoal answers, refuses an open callee where only a done
one may be read, and reads the callee's answers; base relations, builtins
and done callees are always read whole.  A rule's first run is a single
pass reading every open callee up to ``began``.  Every later run is a set
of triangular *versions*, one per positive derived position *i*:

* the *seed* at *i* reads its callee's arrivals in ``(stamp, began]``, off
  the subgoal's arrival-ordered log, in time proportional to their number;
  a done callee is never a seed;
* an open callee before *i* is read up to ``stamp``.  That prefix is *old*,
  and so are the base relations and done callees in it: the same old prefix
  made the same call in the previous run, and a callee that is done now was
  complete when that run scanned it — had it been an open member of this
  SCC it would still be open;
* an open callee after *i* is read up to ``began``: a prefix holding a
  fresh tuple may make a call no earlier run made, and that call must see
  the callee's old answers too.

So version *i* joins exactly the combinations whose first fresh tuple sits
at *i*.  The invariant: *a run joins a combination of answer tuples only if
all of them existed when it began and at least one arrived since that
rule's previous run began; every combination of tuples that existed before
that point was joined then or earlier.*  So each combination is joined
once.  Reading "how far has this literal got" per (rule, position) instead
— the delta at every recursive literal independently — is right for one
linear literal and wrong in general, because of the third case above.
Triangular versions are not that trap: the positions after a seed read the
whole snapshot, not their own delta.

The clock is ``Tuple.seqno``: global, monotone, assigned when a relation
takes the tuple.  ``solve_query`` re-inserts a done subgoal's tuples into
the instance's answer relation, which stamps them again; nothing compares
the seqno of a done subgoal's tuple, so that is harmless.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple as PyTuple

from ..errors import StratificationError
from ..language.ast import (
    AggregateSelection,
    Aggregation,
    Literal,
    Rule,
    group_positions,
)
from ..relations import (
    ArgumentIndexSpec,
    HashRelation,
    ListTupleIterator,
    Tuple,
    TupleIterator,
)
from ..terms import Arg, BindEnv, Trail, Var, rename_term, resolve, unify
from ..terms.unify import subsumes_all
from .aggregates import AggregateConstraint, fold_groups
from .context import LocalScope
from .join import BodyExecutor, Source, derive

PredKey = PyTuple[str, int]

_COMPLETE = 1 << 60  # lowlink value for done subgoals

_seqno = attrgetter("seqno")


class _PreparedRule:
    """One rule of one subgoal, ready to run any number of times: renamed
    apart, the head unified with the subgoal's pattern (those bindings stay
    in ``env`` below ``mark``), the body's derived positions known."""

    __slots__ = (
        "rule", "head_args", "body", "derived", "aggregates", "env", "trail",
        "mark", "versions", "stamp", "began", "reached", "complete",
    )

    def __init__(
        self, rule: Rule, head_args, body, derived, aggregates, env: BindEnv,
        trail: Trail,
    ) -> None:
        self.rule = rule
        self.head_args = head_args
        self.body = body
        #: positions of literals of predicates this module defines
        self.derived = derived
        self.aggregates = aggregates
        self.env = env
        self.trail = trail
        self.mark = trail.mark()
        #: the later runs' executors, built by the second run
        self.versions: Optional[List[BodyExecutor]] = None
        #: the clock when the current (or latest) run began, and when the one
        #: before it did; negative before there was one
        self.began = self.stamp = -1
        #: the minimum lowlink the current run's calls returned
        self.reached = _COMPLETE
        #: a run read base relations and done subgoals only: never run again
        self.complete = False


class _Subgoal:
    """One entry of the context: a called predicate with its binding pattern."""

    __slots__ = (
        "pred", "arity", "pattern", "answers", "depth", "done", "constraints",
        "rules", "log",
    )

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
        #: the prepared rules, built by the first pass
        self.rules: Optional[List[_PreparedRule]] = None
        #: while open: every answer in arrival (seqno) order, the ones a
        #: selection deleted since included
        self.log: Optional[List[Tuple]] = []

    def insert(self, fact: Tuple) -> bool:
        for constraint in self.constraints:
            if not constraint.admit(self.answers, fact):
                return False
        inserted = self.answers.insert(fact)
        if inserted:
            self.log.append(fact)
            for constraint in self.constraints:
                constraint.record(self.answers, fact)
        return inserted

    def arrivals(self, after: int, upto: int) -> List[Tuple]:
        """The stored answers with ``after < seqno <= upto``."""
        log = self.log
        arrivals = log[
            bisect_right(log, after, key=_seqno) : bisect_right(log, upto, key=_seqno)
        ]
        if self.constraints:
            # a selection deletes the answers a better one dominates
            find = self.answers.find
            arrivals = [fact for fact in arrivals if find(fact) is fact]
        return arrivals


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
        #: the clock: seqno of the newest answer of any subgoal
        self._latest = 0

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
        ctx = self.scope.ctx
        if ctx.limits is not None:
            ctx.limits.check(ctx.stats)
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
        ctx.stats.subgoals += 1

        lowlink = self._apply_rules(subgoal)
        if lowlink < subgoal.depth:
            return subgoal, lowlink
        if lowlink != _COMPLETE:
            # root of its subgoal SCC: run the whole SCC's rules until a pass
            # brings no answer, then mark every member done (the paper's
            # 'done' facts)
            label = f"{pred}/{subgoal.arity}"
            index = 0
            while True:
                if ctx.limits is not None:
                    ctx.limits.checkpoint(ctx.stats)
                index += 1
                latest = self._latest
                members = list(self.stack[subgoal.depth :])
                obs = ctx.obs
                if obs is not None:
                    started = obs.begin_iteration(label, index)
                    arrived = sum(len(member.log) for member in members)
                for member in members:
                    lowlink = min(lowlink, self._apply_rules(member))
                ctx.stats.iterations += 1
                if obs is not None:
                    arrived = (
                        sum(len(m.log) for m in self.stack[subgoal.depth :])
                        - arrived
                    )
                    obs.end_iteration(label, index, arrived, started)
                if lowlink < subgoal.depth:
                    # a call first made in this pass reached an open subgoal
                    # below this one: the SCC is part of that subgoal's, whose
                    # root goes on iterating it
                    return subgoal, lowlink
                if self._latest == latest:
                    break
        # else the one pass read base relations and done subgoals only, so
        # it is alone on top of the context with every answer generated
        for member in self.stack[subgoal.depth :]:
            member.done = True
            for prepared in member.rules:
                prepared.versions = None  # their sources refer back to it
            member.rules = member.log = None  # only an open subgoal is iterated
            if not all(arg.is_ground() for arg in member.pattern):
                self.done_general.setdefault(
                    (member.pred, member.arity), []
                ).append(member)
        del self.stack[subgoal.depth :]
        return subgoal, _COMPLETE

    def _prepare(self, subgoal: _Subgoal) -> List[_PreparedRule]:
        """The subgoal's rules whose head unifies with its pattern, renamed
        apart and with their derived positions found — the only place a rule
        is renamed."""
        lookup = self.scope.ctx.builtins.lookup
        prepared = []
        for rule in self.rules_by_pred.get((subgoal.pred, subgoal.arity), ()):
            mapping: Dict[int, Var] = {}
            head_args = tuple(rename_term(arg, mapping) for arg in rule.head.args)
            env = BindEnv()
            trail = Trail()
            # the pattern is unified *into* the head: a pattern variable's
            # first bare occurrence only names the head argument it meets,
            # the rest of the pattern binds the head's variables — so the
            # body binds them directly, through no variable-to-variable
            # chain (docs/INTERNALS.md §4)
            pattern_mapping: Dict[int, Arg] = {}
            constraints = []
            for arg, head_arg in zip(subgoal.pattern, head_args):
                if arg.__class__ is Var and arg.vid not in pattern_mapping:
                    pattern_mapping[arg.vid] = head_arg
                else:
                    constraints.append((arg, head_arg))
            if not all(
                unify(rename_term(arg, pattern_mapping), env, head_arg, env, trail)
                for arg, head_arg in constraints
            ):
                continue
            body = tuple(
                Literal(
                    item.pred,
                    tuple(rename_term(arg, mapping) for arg in item.args),
                    item.negated,
                )
                for item in rule.body
            )
            derived = tuple(
                position
                for position, item in enumerate(body)
                if lookup(item.pred, item.arity) is None
                and item.key in self.rules_by_pred
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
            prepared.append(
                _PreparedRule(rule, head_args, body, derived, aggregates, env, trail)
            )
        return prepared

    def _executor(self, prepared: _PreparedRule, seed: int) -> BodyExecutor:
        """The version of a prepared rule seeded at position ``seed`` (-1:
        the first run's single pass); see :meth:`_source`."""
        sources = {
            position: self._source(prepared, position, seed)
            for position in prepared.derived
        }
        return BodyExecutor(
            self.scope, prepared.body, self.compiled.use_backjumping, sources
        )

    def _apply_rules(self, subgoal: _Subgoal) -> int:
        """One pass over the subgoal's rules; returns the minimum lowlink
        reached through the body calls this pass made."""
        if subgoal.rules is None:
            subgoal.rules = self._prepare(subgoal)
        stats = self.scope.ctx.stats
        obs = self.scope.ctx.obs
        lowlink = _COMPLETE
        for prepared in subgoal.rules:
            if prepared.complete:
                continue
            stats.rule_applications += 1
            if obs is None:
                reached = self._run(subgoal, prepared, None)
            else:
                entry, started = obs.begin_rule(prepared.rule)
                try:
                    reached = self._run(subgoal, prepared, entry)
                finally:
                    obs.end_rule(entry, started)
            prepared.complete = reached == _COMPLETE
            lowlink = min(lowlink, reached)
        return lowlink

    def _run(self, subgoal: _Subgoal, prepared: _PreparedRule, entry) -> int:
        """Run one prepared rule: join what its previous run could not have
        (everything, the first time) and insert the heads.  ``entry`` is the
        profiler's row for the rule, or None."""
        prepared.stamp, prepared.began = prepared.began, self._latest
        prepared.reached = _COMPLETE
        if prepared.stamp < 0:
            executors = [self._executor(prepared, -1)]
        else:
            if prepared.versions is None:
                prepared.versions = [
                    self._executor(prepared, position)
                    for position in prepared.derived
                    if not prepared.body[position].negated
                ]
            executors = prepared.versions
        head_args, env, trail = prepared.head_args, prepared.env, prepared.trail
        if prepared.aggregates:
            # grouping is only legal over *done* subgoals (the paper's
            # guard: rules with grouping wait for their 'done' literals), so
            # a grouping rule's first run is its only one
            facts = fold_groups(
                head_args, prepared.aggregates, env,
                executors[0].solutions(env, trail), self.scope.ctx.stats,
            )
        else:
            facts = chain.from_iterable(
                derive(executor, head_args, env, trail) for executor in executors
            )
        for fact in facts:
            if subgoal.insert(fact):
                self._latest = fact.seqno
                if entry is not None:
                    entry.derived += 1
            elif entry is not None:
                entry.duplicates += 1
        prepared.trail.undo_to(prepared.mark)
        return prepared.reached

    def _source(
        self, prepared: _PreparedRule, position: int, seed: int
    ) -> Source:
        """What a derived position of one version of ``prepared`` reads (see
        the module docstring).  Each read calls the literal's subgoal under
        the bindings at that point, notes the lowlink it returns and refuses
        an open callee where only a done one may be read."""

        def read(literal: Literal, env: BindEnv) -> TupleIterator:
            pattern = tuple(resolve(arg, env) for arg in literal.args)
            callee, lowlink = self._solve(literal.pred, pattern)
            _index_probe(callee, pattern)
            if lowlink < prepared.reached:
                prepared.reached = lowlink
            if callee.done:
                if position == seed:
                    return ListTupleIterator(())
                return callee.answers.scan(literal.args, env)
            if literal.negated or prepared.aggregates:
                raise StratificationError(
                    f"subgoal {literal.pred}/{literal.arity} is needed "
                    f"negated/aggregated before it is done: the program is "
                    f"not left-to-right modularly stratified"
                )
            if position == seed:
                return ListTupleIterator(
                    callee.arrivals(prepared.stamp, prepared.began)
                )
            # a snapshot: the callee may grow while the rest of the body is
            # being solved
            upto = prepared.stamp if position < seed else prepared.began
            return ListTupleIterator([
                t for t in callee.answers.scan(literal.args, env)
                if t.seqno <= upto
            ])

        return read


def _index_probe(subgoal: _Subgoal, called: Sequence[Arg]) -> None:
    """A call bound more than the subgoal that answers it (a done more
    general one, or the group-only subgoal of a selection predicate) probes
    that subgoal's answers on the difference: index those positions.  A
    call answered by a variant of itself has no such position."""
    positions = [
        position
        for position, (mine, theirs) in enumerate(zip(subgoal.pattern, called))
        if theirs.is_ground() and not mine.is_ground()
    ]
    if positions:
        subgoal.answers.add_index(ArgumentIndexSpec(subgoal.arity, positions))
