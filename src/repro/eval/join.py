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

from typing import Callable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..errors import EvaluationError
from ..language.ast import Literal
from ..relations import MarkedRelation, Relation, Tuple, TupleIterator
from ..rewriting.seminaive import ScanKind, SNLiteral
from ..terms import Arg, BindEnv, Functor, Trail, Var, resolve
from ..terms.base import FLAT_PRIMITIVES
from ..terms.unify import unify_fact
from .context import EvalContext, LocalScope

#: resolves a ScanKind to a (since, until) mark range for a literal's relation,
#: given the predicate key; returns None for an unrestricted scan
RangeResolver = Callable[[PyTuple[str, int], ScanKind], Optional[PyTuple[int, Optional[int]]]]

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


def positive_solutions(
    scope: LocalScope,
    literal: Literal,
    env: BindEnv,
    trail: Trail,
    scan_range: Optional[PyTuple[int, Optional[int]]] = None,
) -> Iterator[None]:
    """Enumerate bindings that satisfy a positive, non-builtin literal:
    open a scan (indexed when the probe allows) and run the match loop over
    it (which also counts the probe side for a profiled session)."""
    relation = scope.relation(literal.pred, literal.arity)
    if scan_range is not None and isinstance(relation, MarkedRelation):
        cursor = relation.scan(
            literal.args, env, since=scan_range[0], until=scan_range[1]
        )
    else:
        cursor = relation.scan(literal.args, env)
    obs = scope.ctx.obs
    if obs is None:
        return fact_solutions(cursor, literal.args, env, trail)
    return fact_solutions(cursor, literal.args, env, trail, obs, literal.key)


def matches_any(
    relation: Relation, args: Sequence[Arg], env: BindEnv, trail: Trail
) -> bool:
    """Does some stored fact of ``relation`` unify with ``args``?  Leaves
    no binding behind."""
    mark = trail.mark()
    solutions = fact_solutions(relation.scan(args, env), args, env, trail)
    try:
        return next(solutions, _EXHAUSTED) is not _EXHAUSTED
    finally:
        solutions.close()
        trail.undo_to(mark)


def negative_holds(
    scope: LocalScope,
    literal: Literal,
    env: BindEnv,
    trail: Trail,
) -> bool:
    """Negation as set difference over a *complete* relation (Section 5.4.1):
    ``not p(args)`` holds when no stored fact unifies with the arguments.
    Stratification (or Ordered Search's done-markers) guarantees the
    relation is fully evaluated when this runs."""
    relation = scope.relation(literal.pred, literal.arity)
    return not matches_any(relation, literal.args, env, trail)


def _builtin_solutions(impl, args, env: BindEnv, trail: Trail) -> Iterator[None]:
    """Solutions of a builtin literal; its bindings are undone at the end."""
    mark = trail.mark()
    for _ in impl(args, env, trail):
        yield None
    trail.undo_to(mark)


def _negation_solutions(scope, literal, env, trail) -> Iterator[None]:
    """At most one solution, binding nothing: the negated literal holds."""
    if negative_holds(scope, literal, env, trail):
        yield None


def backtrack_points(body: Sequence[SNLiteral]) -> List[int]:
    """For each body position, the latest earlier position sharing a
    variable with it (-1 when none) — the pre-computed backjump targets of
    Section 5.1."""
    variable_sets = [
        {var.vid for arg in item.literal.args for var in arg.variables()}
        for item in body
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

    Built once per semi-naive rule (the 'semi-naive rule structure' of
    Section 5.1: literal order and backtrack points are pre-computed);
    :meth:`solutions` is then called once per rule application with a fresh
    environment.
    """

    def __init__(
        self,
        scope: LocalScope,
        body: Sequence[SNLiteral],
        use_backjumping: bool = True,
    ) -> None:
        self.scope = scope
        self.body = list(body)
        self.points = backtrack_points(self.body)
        self.use_backjumping = use_backjumping
        self._openers = [self._opener(item) for item in self.body]

    def _opener(
        self, item: SNLiteral
    ) -> Callable[[BindEnv, Trail, Optional[RangeResolver]], Iterator[None]]:
        """How to start enumerating one body literal's solutions — builtin,
        negated, or a (possibly delta-restricted) relation scan — decided
        here, once, rather than at every activation."""
        scope = self.scope
        literal = item.literal
        builtin = scope.ctx.builtins.lookup(literal.pred, literal.arity)
        if builtin is not None:
            if literal.negated:
                def refuse(env, trail, ranges):
                    raise EvaluationError(
                        f"negation of builtin {literal.pred} is not supported"
                    )
                return refuse
            impl = builtin.impl
            return lambda env, trail, ranges: _builtin_solutions(
                impl, literal.args, env, trail
            )
        if literal.negated:
            return lambda env, trail, ranges: _negation_solutions(
                scope, literal, env, trail
            )
        kind = item.kind
        if kind is ScanKind.ALL:
            return lambda env, trail, ranges: positive_solutions(
                scope, literal, env, trail
            )
        return lambda env, trail, ranges: positive_solutions(
            scope, literal, env, trail,
            ranges(literal.key, kind) if ranges is not None else None,
        )

    def solutions(
        self,
        env: BindEnv,
        trail: Trail,
        ranges: Optional[RangeResolver] = None,
    ) -> Iterator[None]:
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
                iterators[position] = openers[position](env, trail, ranges)
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
