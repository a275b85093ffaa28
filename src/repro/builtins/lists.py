"""List-manipulation builtins: ``append/3``, ``member/2``, ``length/2``.

``append`` is the workhorse the paper's Figure 3 uses to accumulate the edge
list of a path.  It is fully relational, Prolog-style: any argument may be
unbound, and the builtin enumerates every solution.  The materialized join
uses it almost exclusively in the (ground, ground, free) mode, where it is
deterministic: there it builds the one answer directly.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..errors import EvaluationError
from ..terms import (
    Arg,
    BindEnv,
    Functor,
    Int,
    NIL,
    Trail,
    Var,
    cons,
    deref,
    is_cons,
    is_nil,
    resolve,
    unify,
)
from .registry import BuiltinRegistry


def _append_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    whole = _ground_append(args[0], args[1], env)
    if whole is None:
        yield from _append(args[0], args[1], args[2], env, trail)
        return
    target, target_env = deref(args[2], env)
    mark = trail.mark()
    if target.__class__ is Var:
        target_env.bind(target, whole, None, trail)
    elif not unify(target, target_env, whole, None, trail):
        trail.undo_to(mark)
        return
    yield None
    trail.undo_to(mark)


def _ground_append(front: Arg, back: Arg, env: BindEnv) -> Optional[Arg]:
    """``Front ++ Back`` as n new cons cells onto ``Back``, when ``Front``
    is a proper list of ground elements and ``Back`` is ground — the mode in
    which the two clauses below have exactly one solution — else None."""
    back, _ = deref(back, env)
    if not back.is_ground():
        return None
    elements = []
    front, front_env = deref(front, env)
    while is_cons(front):
        element = resolve(front.args[0], front_env)
        if not element.is_ground():
            return None
        elements.append(element)
        front, front_env = deref(front.args[1], front_env)
    if not is_nil(front):
        return None
    whole = back
    for element in reversed(elements):
        whole = cons(element, whole)
    return whole


def _append(front: Arg, back: Arg, whole: Arg, env: BindEnv, trail: Trail) -> Iterator[None]:
    """append(Front, Back, Whole) — recursion on Front / Whole."""
    # clause 1: append([], B, B).
    mark = trail.mark()
    if unify(front, env, NIL, None, trail) and unify(back, env, whole, env, trail):
        yield None
    trail.undo_to(mark)

    # clause 2: append([H|T], B, [H|W]) :- append(T, B, W).
    mark = trail.mark()
    head, tail, rest = Var("_H"), Var("_T"), Var("_W")
    if unify(front, env, cons(head, tail), env, trail) and unify(
        whole, env, cons(head, rest), env, trail
    ):
        yield from _append(tail, back, rest, env, trail)
    trail.undo_to(mark)


def _member_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    item = args[0]
    lst, lst_env = args[1], env
    while True:
        lst, lst_env = deref(lst, lst_env)
        if not is_cons(lst):
            return
        assert isinstance(lst, Functor)
        mark = trail.mark()
        if unify(item, env, lst.args[0], lst_env, trail):
            yield None
        trail.undo_to(mark)
        lst = lst.args[1]


def _length_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    lst, length = args[0], args[1]
    count = 0
    lst, lst_env = deref(lst, env)
    while is_cons(lst):
        assert isinstance(lst, Functor)
        count += 1
        lst, lst_env = deref(lst.args[1], lst_env)
    if is_nil(lst):
        mark = trail.mark()
        if unify(length, env, Int(count), None, trail):
            yield None
        else:
            trail.undo_to(mark)
        return
    if isinstance(lst, Var):
        # partial list: enumerate extensions when the length is known
        target, _ = deref(length, env)
        if isinstance(target, Int):
            remaining = target.value - count
            if remaining < 0:
                return
            extension: Arg = NIL
            for _ in range(remaining):
                extension = cons(Var("_E"), extension)
            mark = trail.mark()
            if unify(lst, lst_env, extension, None, trail):
                yield None
            else:
                trail.undo_to(mark)
            return
        raise EvaluationError("length/2 needs a proper list or a bound length")


def _elements(term: Arg, env: BindEnv, name: str):
    """The elements of a bound proper list, as standalone terms."""
    from ..terms import resolve, list_elements

    resolved = resolve(term, env)
    elements = list_elements(resolved)
    if elements is None:
        raise EvaluationError(f"{name}: expected a proper list, got {resolved}")
    return elements


def _unify_one(arg: Arg, env: BindEnv, value: Arg, trail: Trail) -> Iterator[None]:
    mark = trail.mark()
    if unify(arg, env, value, None, trail):
        yield None
    else:
        trail.undo_to(mark)


def _reverse_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    from ..terms import make_list

    elements = _elements(args[0], env, "reverse/2")
    yield from _unify_one(args[1], env, make_list(list(reversed(elements))), trail)


def _nth_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """nth(N, List, Element) — 1-based; enumerates N when unbound."""
    elements = _elements(args[1], env, "nth/3")
    index_term, _ = deref(args[0], env)
    if isinstance(index_term, Int):
        position = index_term.value
        if 1 <= position <= len(elements):
            yield from _unify_one(args[2], env, elements[position - 1], trail)
        return
    for position, element in enumerate(elements, start=1):
        mark = trail.mark()
        if unify(args[0], env, Int(position), None, trail) and unify(
            args[2], env, element, None, trail
        ):
            yield None
        trail.undo_to(mark)


def _last_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    elements = _elements(args[0], env, "last/2")
    if elements:
        yield from _unify_one(args[1], env, elements[-1], trail)


def _numeric_fold(name: str, fold):
    from ..builtins.core import eval_arith, number_to_arg

    def impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
        elements = _elements(args[0], env, name)
        values = []
        for element in elements:
            value = eval_arith(element, None)
            if value is None:
                raise EvaluationError(f"{name}: non-numeric element {element}")
            values.append(value)
        result = fold(values)
        if result is None:
            return
        yield from _unify_one(args[1], env, number_to_arg(result), trail)

    return impl


def _sort_impl(dedup: bool):
    from ..storage.serde import sort_key
    from ..terms import make_list

    def impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
        elements = _elements(args[0], env, "sort/msort")

        def key(element: Arg):
            try:
                return (0, sort_key([element]))
            except Exception:
                return (1, str(element))

        ordered = sorted(elements, key=key)
        if dedup:
            unique = []
            for element in ordered:
                if not unique or unique[-1] != element:
                    unique.append(element)
            ordered = unique
        yield from _unify_one(args[1], env, make_list(ordered), trail)

    return impl


def install(registry: BuiltinRegistry) -> None:
    registry.register_function("append", 3, _append_impl)
    registry.register_function("member", 2, _member_impl)
    registry.register_function("length", 2, _length_impl)
    registry.register_function("reverse", 2, _reverse_impl)
    registry.register_function("nth", 3, _nth_impl)
    registry.register_function("last", 2, _last_impl)
    registry.register_function(
        "sum_list", 2, _numeric_fold("sum_list/2", lambda v: sum(v))
    )
    registry.register_function(
        "max_list", 2, _numeric_fold("max_list/2", lambda v: max(v) if v else None)
    )
    registry.register_function(
        "min_list", 2, _numeric_fold("min_list/2", lambda v: min(v) if v else None)
    )
    registry.register_function("sort", 2, _sort_impl(dedup=True))
    registry.register_function("msort", 2, _sort_impl(dedup=False))
