"""Arithmetic and comparison builtins.

``=`` follows the paper's usage (Figure 3: ``C1 = C + EC``): each side is
*arithmetically evaluated* if it is a ground arithmetic expression, then the
two sides are unified — so ``=`` serves both as assignment of a computed
value and as plain unification.  The comparison operators require ground
(evaluable) operands and fail with :class:`InstantiationError` otherwise,
which is the standard left-to-right-evaluation contract the optimizer's join
order must respect.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Union

from ..errors import EvaluationError, InstantiationError
from ..terms import Arg, Atom, BindEnv, Double, Functor, Int, Str, Trail, Var, deref, unify
from .registry import BuiltinRegistry

Number = Union[int, float]

#: arithmetic functors understood by :func:`eval_arith`
_BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "mod": lambda a, b: a % b,
    "min": min,
    "max": max,
    "pow": lambda a, b: a**b,
}
_UNARY_OPS = {
    "abs": abs,
    "floor": math.floor,
    "ceil": math.ceil,
    "sqrt": math.sqrt,
}


def eval_arith(term: Arg, env: Optional[BindEnv]) -> Optional[Number]:
    """Evaluate an arithmetic expression under ``env``.

    Returns a Python number, or None when the term is not an arithmetic
    expression (e.g. an atom or a non-arithmetic functor) — the caller then
    falls back to treating it as a structural term.  Raises
    :class:`InstantiationError` on an unbound variable inside an arithmetic
    operator, since that is certainly an evaluation-order bug.
    """
    term, env = deref(term, env)
    if isinstance(term, Int):
        return term.value
    if isinstance(term, Double):
        return term.value
    if isinstance(term, Functor):
        if term.name in _BINARY_OPS and len(term.args) == 2:
            left = _require(term.args[0], env, term)
            right = _require(term.args[1], env, term)
            try:
                return _BINARY_OPS[term.name](left, right)
            except ZeroDivisionError:
                raise EvaluationError(f"division by zero in {term}")
        if term.name in _UNARY_OPS and len(term.args) == 1:
            return _UNARY_OPS[term.name](_require(term.args[0], env, term))
    return None


def _require(term: Arg, env: Optional[BindEnv], context: Arg) -> Number:
    resolved, resolved_env = deref(term, env)
    if resolved.__class__ is Int or resolved.__class__ is Double:
        return resolved.value
    if isinstance(resolved, Var):
        raise InstantiationError(
            f"unbound variable {resolved} in arithmetic expression {context}"
        )
    value = eval_arith(resolved, resolved_env)
    if value is None:
        raise EvaluationError(f"non-numeric operand {resolved} in {context}")
    return value


def number_to_arg(value: Number) -> Arg:
    return Int(value) if isinstance(value, int) else Double(value)


def _comparable(term: Arg, env: Optional[BindEnv], op: str):
    """The Python value a comparison operand denotes."""
    term, env = deref(term, env)
    if isinstance(term, Var):
        raise InstantiationError(f"unbound operand {term} of comparison {op!r}")
    value = eval_arith(term, env)
    if value is not None:
        return (0, value)  # numbers compare together (Int 1 == Double 1.0)
    if isinstance(term, Str):
        return (1, term.value)
    if isinstance(term, Atom):
        return (2, term.name)
    raise EvaluationError(f"cannot compare term {term} with {op!r}")


def _comparison(op: str, test) -> None:
    def impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
        left = _comparable(args[0], env, op)
        right = _comparable(args[1], env, op)
        if left[0] != right[0]:
            raise EvaluationError(
                f"type mismatch in comparison {op!r}: {args[0]} vs {args[1]}"
            )
        if test(left[1], right[1]):
            yield None

    impl.__name__ = f"builtin_{op}"
    return impl


def _eq_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """``X = Expr``: arithmetic evaluation then unification (Figure 3).
    With ``X`` unbound, the value is bound to it directly."""
    left, right = args[0], args[1]
    left_value = _try_arith(left, env)
    right_value = _try_arith(right, env)
    if left_value is None and right_value is not None:
        target, target_env = deref(left, env)
        if target.__class__ is Var:
            mark = trail.mark()
            target_env.bind(target, number_to_arg(right_value), None, trail)
            yield None
            trail.undo_to(mark)
            return
    left_term = number_to_arg(left_value) if left_value is not None else left
    right_term = number_to_arg(right_value) if right_value is not None else right
    mark = trail.mark()
    if unify(left_term, env, right_term, env, trail):
        yield None
    else:
        trail.undo_to(mark)


def is_arith_expr(term: Arg) -> bool:
    """Is ``term`` a *compound* arithmetic expression — something ``=``
    evaluates (and so needs ground) rather than unifies structurally?"""
    return isinstance(term, Functor) and (
        (term.name in _BINARY_OPS and len(term.args) == 2)
        or (term.name in _UNARY_OPS and len(term.args) == 1)
    )


def _try_arith(term: Arg, env: Optional[BindEnv]) -> Optional[Number]:
    """Evaluate if the term is a *compound* arithmetic expression; leave
    plain constants and variables to structural unification."""
    resolved, resolved_env = deref(term, env)
    if is_arith_expr(resolved):
        return eval_arith(resolved, resolved_env)
    return None


def _struct_eq(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """``==``: equality of the (arithmetically evaluated) ground operands."""
    left = _comparable(args[0], env, "==")
    right = _comparable(args[1], env, "==")
    if left == right:
        yield None


def _struct_neq(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    left = _comparable(args[0], env, "!=")
    right = _comparable(args[1], env, "!=")
    if left != right:
        yield None


def _between_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """``between(Low, High, X)``: enumerate integers Low..High into X, or
    test membership when X is bound — the standard generator builtin."""
    low = _require(args[0], env, args[0])
    high = _require(args[1], env, args[1])
    if not (isinstance(low, int) and isinstance(high, int)):
        raise EvaluationError("between/3 bounds must be integers")
    target, target_env = deref(args[2], env)
    if not isinstance(target, Var):
        value = eval_arith(target, target_env)
        if isinstance(value, int) and low <= value <= high:
            yield None
        return
    for value in range(low, high + 1):
        mark = trail.mark()
        if unify(args[2], env, Int(value), None, trail):
            yield None
        trail.undo_to(mark)


def install(registry: BuiltinRegistry) -> None:
    registry.register_function("between", 3, _between_impl)
    registry.register_function("<", 2, _comparison("<", lambda a, b: a < b))
    registry.register_function(">", 2, _comparison(">", lambda a, b: a > b))
    registry.register_function("<=", 2, _comparison("<=", lambda a, b: a <= b))
    registry.register_function(">=", 2, _comparison(">=", lambda a, b: a >= b))
    registry.register_function("=", 2, _eq_impl)
    registry.register_function("==", 2, _struct_eq)
    registry.register_function("!=", 2, _struct_neq)
