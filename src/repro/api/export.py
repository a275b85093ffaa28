"""Defining new predicates in the host language (paper Section 6.2).

*"Sometimes, it may be desirable to define a predicate using extended C++,
rather than the declarative language supported within CORAL modules.  A
_coral_export statement is used to declare the arguments of the predicate
being defined ... The CORAL primitive types are the only types that can be
used in a _coral_export declaration."*

:func:`coral_export` is the Python rendition: decorate a generator function
that receives the call's arguments as Python values (``None`` for unbound
positions) and yields result tuples; the decorator registers it as a builtin
so declarative rules can call it like any other predicate.  The primitive-
types-only restriction is enforced at the boundary, as in the paper.

:class:`ScanDescriptor` is the C_ScanDesc equivalent: an explicit cursor
over any relation for imperative code (Section 6.1).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Tuple as PyTuple

from ..builtins.registry import BuiltinRegistry
from ..errors import EvaluationError
from ..eval.join import goal_filter
from ..relations import Relation, TupleIterator
from ..terms import (
    Arg,
    Atom,
    BindEnv,
    Double,
    Int,
    Str,
    Trail,
    Var,
    deref,
    to_arg,
    unify,
)

#: a host predicate: takes one Python value (or None) per argument, yields
#: one tuple of Python values per solution
HostPredicate = Callable[..., Iterable[PyTuple[Any, ...]]]

_PRIMITIVES = (Int, Double, Str, Atom)


def _lower(term: Arg, env: BindEnv) -> Optional[Any]:
    term, _env = deref(term, env)
    if isinstance(term, Var):
        return None
    if isinstance(term, _PRIMITIVES):
        from ..terms import from_arg

        return from_arg(term)
    raise EvaluationError(
        f"host predicates accept primitive-typed arguments only "
        f"(Section 6.2); got {term}"
    )


def coral_export(
    registry: BuiltinRegistry,
    name: str,
    arity: int,
    pure: bool = True,
) -> Callable[[HostPredicate], HostPredicate]:
    """Register a Python generator function as predicate ``name/arity``.

    The function is called with one positional argument per predicate
    argument: the bound Python value, or None when unbound.  Every yielded
    tuple is unified against the call — positions the function returns must
    be primitive Python values.

    Example::

        @coral_export(session.ctx.builtins, "double", 2)
        def double(x, y):
            if x is not None:
                yield (x, 2 * x)
    """

    def decorate(function: HostPredicate) -> HostPredicate:
        def impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
            lowered = [_lower(arg, env) for arg in args]
            for result in function(*lowered):
                if len(result) != arity:
                    raise EvaluationError(
                        f"host predicate {name}/{arity} yielded a tuple of "
                        f"length {len(result)}"
                    )
                mark = trail.mark()
                if all(
                    unify(arg, env, to_arg(value), None, trail)
                    for arg, value in zip(args, result)
                ):
                    yield None
                trail.undo_to(mark)

        registry.register_function(name, arity, impl, pure=pure)
        return function

    return decorate


class ScanDescriptor:
    """An explicit cursor over a relation for imperative code — the paper's
    ``C_ScanDesc`` (Section 6.1).  Selections are given as Python values
    (None = wildcard); results come back as Python tuples."""

    def __init__(
        self, relation: Relation, selection: Optional[Sequence[Any]] = None
    ) -> None:
        from ..terms import from_arg

        self.relation = relation
        if selection is None:
            pattern = None
        else:
            if len(selection) != relation.arity:
                raise EvaluationError(
                    f"selection arity {len(selection)} != relation arity "
                    f"{relation.arity}"
                )
            pattern = [
                Var("_") if value is None else to_arg(value)
                for value in selection
            ]
        #: the selection's filter (None: no selection)
        self._matches = None if pattern is None else goal_filter(pattern)
        self._cursor: TupleIterator = relation.scan(pattern, None)
        self._from_arg = from_arg

    def get_next(self) -> Optional[PyTuple[Any, ...]]:
        """The next matching tuple as Python values, or None at the end."""
        while True:
            candidate = self._cursor.get_next()
            if candidate is None:
                return None
            if self._matches is not None and not self._matches(candidate):
                continue
            return tuple(self._from_arg(arg) for arg in candidate.args)

    def close(self) -> None:
        self._cursor.close()

    def __iter__(self) -> Iterator[PyTuple[Any, ...]]:
        while True:
            row = self.get_next()
            if row is None:
                return
            yield row

    def __enter__(self) -> "ScanDescriptor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
