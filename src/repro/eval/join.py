"""Nested-loops join with indexing, trail-based backtracking, and
intelligent backjumping.

Section 5.3: *"The basic join mechanism in CORAL is nested-loops with
indexing.  In a manner similar to Prolog, CORAL maintains a trail of variable
bindings when a rule is evaluated; this is used to undo variable bindings
when the nested-loops join considers the next tuple in any loop."*

Section 4.2 lists "deciding whether to refine the basic nested-loops join
with intelligent backtracking" among the optimizer's duties, and Section 5.1
notes each semi-naive rule carries "pre-computed backtrack points".  The
executor here implements that refinement: when a body literal yields *no*
solution at all under the current bindings, control jumps directly to the
most recent earlier literal that binds one of its variables — the
intermediate literals' untried alternatives cannot make it succeed.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from ..errors import EvaluationError
from ..language.ast import Literal
from ..relations import Tuple, TupleIterator
from ..terms import Arg, BindEnv, Functor, Trail, Var, resolve
from ..terms.base import FLAT_PRIMITIVES
from ..terms.unify import flat_constants, unify_fact
from .context import LocalScope

#: where one body literal reads from: given the literal and the bindings at
#: that point, the cursor it scans — a delta window or the last iteration's
#: arrivals, a wave's changed tuples, an Ordered Search callee's answers.
#: A literal given no source reads its relation's full extent.
Source = Callable[[Literal, BindEnv], TupleIterator]

_EXHAUSTED = object()


def fact_solutions(
    cursor: TupleIterator,
    args: Sequence[Arg],
    env: BindEnv,
    trail: Trail,
    obs=None,
    key: Optional[PyTuple[str, int]] = None,
) -> Iterator[None]:
    """The match loop of the nested-loops join — the only copy: yield once
    per candidate of ``cursor`` that unifies with ``args``, with the
    bindings in ``env`` while the consumer holds the solution and undone
    before the next candidate is tried.

    Stored non-ground facts are standardized apart before unification
    (their variables are universally quantified, Section 3.1).  The cursor
    is closed when the loop ends or is abandoned, and a profiled session's
    ``obs`` is then told the probe side's counts for predicate ``key``
    (tuples consulted, unifications that stuck).  Abandoning the loop at a
    solution leaves that solution's bindings for the caller to undo.
    """
    probed = matched = 0
    get_next = cursor.get_next
    undo_to = trail.undo_to
    # every candidate is tried at the same trail height
    mark = trail.mark()
    try:
        while True:
            candidate = get_next()
            if candidate is None:
                return
            probed += 1
            if unify_fact(args, env, candidate.renamed().args, trail):
                matched += 1
                yield None
            undo_to(mark)
    finally:
        cursor.close()
        if obs is not None:
            obs.on_scan(key, probed, matched)


def goal_filter(pattern: Sequence[Arg]) -> Callable[[Tuple], bool]:
    """Does a stored fact unify with the goal ``pattern``?  For a consumer
    filtering many facts by one goal (memo serving a more-bound call, a live
    view).  Decided once: a flat pattern meets a ground fact by comparing
    constants (:func:`~repro.terms.unify.flat_constants`); anything else
    unifies, in one environment reused for every fact."""
    env, trail = BindEnv(), Trail()

    def unifies(fact: Tuple) -> bool:
        matched = unify_fact(pattern, env, fact.renamed().args, trail)
        trail.undo_to(0)
        return matched

    constants = flat_constants(pattern)
    if constants is None:
        return unifies

    def flat(fact: Tuple) -> bool:
        if not fact.is_ground():
            return unifies(fact)
        args = fact.args
        for position, constant in constants:
            value = args[position]
            if value is not constant and not constant.equals(value):
                return False
        return True

    return flat


def _negation_solutions(
    cursor: TupleIterator, args: Sequence[Arg], env: BindEnv, trail: Trail
) -> Iterator[None]:
    """Negation as set difference over a *complete* relation (Section
    5.4.1): at most one solution, binding nothing, when no fact of
    ``cursor`` unifies with the arguments.  Stratification (or the source's
    check that an Ordered Search callee is done) guarantees the relation is
    fully evaluated when this runs."""
    mark = trail.mark()
    matches = fact_solutions(cursor, args, env, trail)
    found = next(matches, _EXHAUSTED) is not _EXHAUSTED
    matches.close()
    trail.undo_to(mark)
    if not found:
        yield None


def backtrack_points(body: Sequence[Literal]) -> List[int]:
    """For each body position, the latest earlier position sharing a
    variable with it (-1 when none) — the pre-computed backjump targets of
    Section 5.1."""
    variable_sets = [
        {var.vid for arg in literal.args for var in arg.variables()}
        for literal in body
    ]
    points: List[int] = []
    for index, variables in enumerate(variable_sets):
        target = -1
        for earlier in range(index - 1, -1, -1):
            if variable_sets[earlier] & variables:
                target = earlier
                break
        points.append(target)
    return points


class BodyExecutor:
    """Iterative nested-loops evaluation of one rule body.

    Built once per delta rule (the 'semi-naive rule structure' of Section
    5.1: literal order and backtrack points are pre-computed);
    :meth:`solutions` is then called once per rule application with a fresh
    environment.  ``sources`` maps a body position to the :data:`Source` its
    literal reads — a positive literal enumerates that cursor's matches, a
    negated one holds when it has none; every other literal reads its
    relation's full extent.  What a source reads is the caller's business:
    the fixpoint's arrivals and triangular windows, resumption's and
    maintenance's seeds and Ordered Search's callee reads are all sources,
    and the executor treats them alike.
    """

    def __init__(
        self,
        scope: LocalScope,
        body: Sequence[Literal],
        use_backjumping: bool = True,
        sources: Mapping[int, Source] = {},
    ) -> None:
        self.scope = scope
        self.body = list(body)
        self.points = backtrack_points(self.body)
        self.use_backjumping = use_backjumping
        self._openers = [
            self._opener(literal, sources.get(position))
            for position, literal in enumerate(self.body)
        ]

    def _opener(
        self, literal: Literal, source: Optional[Source]
    ) -> Callable[[BindEnv, Trail], Iterator[None]]:
        """How to start enumerating one body literal's solutions — builtin,
        negated, or a scan of its source or whole relation — decided here,
        once, rather than at every activation."""
        scope = self.scope
        args = literal.args
        builtin = scope.ctx.builtins.lookup(literal.pred, literal.arity)
        if builtin is not None:
            if literal.negated:
                def refuse(env, trail):
                    raise EvaluationError(
                        f"negation of builtin {literal.pred} is not supported"
                    )
                return refuse
            # the executor undoes a literal's bindings when it moves off it
            impl = builtin.impl
            return lambda env, trail: impl(args, env, trail)
        if source is None:
            pred, arity = literal.pred, literal.arity

            def source(literal, env):
                # the whole relation, indexed when the probe allows
                return scope.relation(pred, arity).scan(args, env)

        if literal.negated:
            return lambda env, trail: _negation_solutions(
                source(literal, env), args, env, trail
            )
        # the match loop also counts the probe side for a profiled session
        ctx, key = scope.ctx, literal.key
        return lambda env, trail: fact_solutions(
            source(literal, env), args, env, trail, ctx.obs, key
        )

    def solutions(self, env: BindEnv, trail: Trail) -> Iterator[None]:
        """Yield once per way of satisfying the whole body; bindings are in
        ``env`` while the consumer holds each solution."""
        count = len(self.body)
        if count == 0:
            yield None
            return
        openers = self._openers
        iterators: List[Optional[Iterator[None]]] = [None] * count
        marks: List[int] = [0] * count
        produced: List[bool] = [False] * count
        position = 0
        while True:
            if iterators[position] is None:
                marks[position] = trail.mark()
                produced[position] = False
                iterators[position] = openers[position](env, trail)
            step = next(iterators[position], _EXHAUSTED)
            if step is not _EXHAUSTED:
                produced[position] = True
                if position == count - 1:
                    yield None
                    continue  # more solutions of the innermost literal
                position += 1
                continue
            # this literal is exhausted
            trail.undo_to(marks[position])
            iterators[position] = None
            if self.use_backjumping and not produced[position]:
                target = self.points[position]
            else:
                target = position - 1
            if target < 0:
                return
            for intermediate in range(position - 1, target, -1):
                iterators[intermediate] = None
                trail.undo_to(marks[intermediate])
            position = target


def derive(
    executor: BodyExecutor,
    head_args: Sequence[Arg],
    env: BindEnv,
    trail: Trail,
) -> Iterator[Tuple]:
    """Run one delta rule: yield the head fact of every body solution (one
    inference each), with the solution's bindings in ``env`` while the
    consumer holds the fact.  The fixpoint and Ordered Search insert what it
    yields; maintenance inserts it, or collects it while DRed over-deletes."""
    stats = executor.scope.ctx.stats
    for _ in executor.solutions(env, trail):
        stats.inferences += 1
        yield instantiate_head(head_args, env)


def instantiate_head(head_args: Sequence[Arg], env: BindEnv) -> Tuple:
    """Resolve a satisfied rule's head into a standalone fact (remaining free
    variables stay universally quantified — non-ground facts, Section 3.1).

    A head argument that is a value — a primitive constant or a ground
    functor term — or a variable bound to one, is taken as it stands.
    Anything else is resolved, and when every argument is or resolves to a
    ground term the fact is built ground without another walk."""
    bindings = env._bindings
    args = []
    ground = True
    for arg in head_args:
        if arg.__class__ is Var:
            bound = bindings.get(arg.vid)
            if bound is not None:
                value = bound[0]
                if value.__class__ in FLAT_PRIMITIVES or (
                    value.__class__ is Functor and value._ground
                ):
                    args.append(value)
                    continue
        elif arg.__class__ in FLAT_PRIMITIVES or (
            arg.__class__ is Functor and arg._ground
        ):
            args.append(arg)
            continue
        value = resolve(arg, env)
        ground = ground and value.is_ground()
        args.append(value)
    return Tuple.ground(args) if ground else Tuple(args)
