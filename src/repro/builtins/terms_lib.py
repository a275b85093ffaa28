"""Term-inspection builtins: ``functor/3``, ``arg/3``, ``ground/1``,
``is_list/1``, ``copy_term/2``.

These give declarative programs the same reflective access to structured
terms that the host-language API has through the Arg interface — the
"manipulate complex objects created using functors" capability the paper
leans on (Section 3.3).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from ..errors import EvaluationError, InstantiationError
from ..terms import (
    Arg,
    Atom,
    BindEnv,
    Functor,
    Int,
    Str,
    Trail,
    Var,
    deref,
    is_cons,
    is_nil,
    rename_term,
    resolve,
    unify,
)
from .core import unify_one
from .registry import BuiltinRegistry


def _functor_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """functor(Term, Name, Arity) — decompose a bound term, or build a most
    general term from a bound name/arity."""
    term, term_env = deref(args[0], env)
    if not isinstance(term, Var):
        if isinstance(term, Functor):
            name: Arg = Atom(term.name)
            arity = len(term.args)
        elif isinstance(term, Atom):
            name, arity = term, 0
        else:
            name, arity = term, 0  # constants are their own functor
        mark = trail.mark()
        if unify(args[1], env, name, None, trail) and unify(
            args[2], env, Int(arity), None, trail
        ):
            yield None
        trail.undo_to(mark)
        return
    name_term, _ = deref(args[1], env)
    arity_term, _ = deref(args[2], env)
    if isinstance(name_term, Var) or not isinstance(arity_term, Int):
        raise InstantiationError(
            "functor/3: need a bound term, or a bound name and arity"
        )
    if arity_term.value < 0:
        raise EvaluationError("functor/3: negative arity")
    if arity_term.value == 0:
        built: Arg = name_term
    else:
        if not isinstance(name_term, Atom):
            raise EvaluationError("functor/3: functor name must be an atom")
        built = Functor(
            name_term.name, tuple(Var("_A") for _ in range(arity_term.value))
        )
    yield from unify_one(args[0], env, built, trail)


def _arg_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """arg(N, Term, A) — the Nth (1-based) argument; enumerates N when free."""
    term, term_env = deref(args[1], env)
    if not isinstance(term, Functor):
        raise EvaluationError(f"arg/3: second argument must be a functor term")
    index_term, _ = deref(args[0], env)
    if isinstance(index_term, Int):
        position = index_term.value
        if 1 <= position <= len(term.args):
            mark = trail.mark()
            if unify(args[2], env, term.args[position - 1], term_env, trail):
                yield None
            trail.undo_to(mark)
        return
    for position, sub in enumerate(term.args, start=1):
        mark = trail.mark()
        if unify(args[0], env, Int(position), None, trail) and unify(
            args[2], env, sub, term_env, trail
        ):
            yield None
        trail.undo_to(mark)


def _ground_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    if resolve(args[0], env).is_ground():
        yield None


def _is_list_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    term = resolve(args[0], env)
    while is_cons(term):
        assert isinstance(term, Functor)
        term = term.args[1]
    if is_nil(term):
        yield None


def _copy_term_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """copy_term(T, C): C is T with fresh variables."""
    mapping: Dict[int, Var] = {}
    copy = rename_term(resolve(args[0], env), mapping)
    # the copy's fresh variables live in the caller's environment, so later
    # literals can bind them (they are unique, so no capture is possible)
    mark = trail.mark()
    if unify(args[1], env, copy, env, trail):
        yield None
    else:
        trail.undo_to(mark)


def install(registry: BuiltinRegistry) -> None:
    registry.register_function("functor", 3, _functor_impl)
    registry.register_function("arg", 3, _arg_impl)
    registry.register_function("ground", 1, _ground_impl)
    registry.register_function("is_list", 1, _is_list_impl)
    registry.register_function("copy_term", 2, _copy_term_impl)
