"""String and atom builtins.

Part of the utility library (the paper's acknowledgements credit "several
utilities and built-in libraries").  Strings and atoms are distinct
primitive types (Section 3.1); these predicates convert and combine them.

Modes follow the usual convention: arguments the predicate can compute are
bound on success; calling with insufficient instantiation raises
:class:`InstantiationError` rather than silently failing, since that is
almost always an evaluation-order bug.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple as PyTuple

from ..errors import EvaluationError, InstantiationError
from ..terms import Arg, Atom, BindEnv, Double, Int, Str, Trail, Var, deref, unify
from .core import unify_one
from .registry import BuiltinRegistry


def _text(term: Arg, env: Optional[BindEnv]) -> Optional[str]:
    """The textual value of a bound atom/string operand, or None if the
    operand is an unbound variable."""
    term, _env = deref(term, env)
    if isinstance(term, Var):
        return None
    if isinstance(term, Str):
        return term.value
    if isinstance(term, Atom):
        return term.name
    raise EvaluationError(f"expected an atom or string, got {term}")


def _concat_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """string_concat(A, B, C): concatenation; any single argument may be
    unbound (prefix/suffix subtraction); with A and B unbound, enumerates
    every split of C."""
    left, right, whole = (_text(a, env) for a in args)
    if left is not None and right is not None:
        yield from unify_one(args[2], env, Str(left + right), trail)
        return
    if whole is None:
        raise InstantiationError("string_concat/3: need C or both A and B")
    if left is not None:
        if whole.startswith(left):
            yield from unify_one(args[1], env, Str(whole[len(left):]), trail)
        return
    if right is not None:
        if whole.endswith(right):
            yield from unify_one(
                args[0], env, Str(whole[: len(whole) - len(right)]), trail
            )
        return
    for split in range(len(whole) + 1):
        mark = trail.mark()
        if unify(args[0], env, Str(whole[:split]), None, trail) and unify(
            args[1], env, Str(whole[split:]), None, trail
        ):
            yield None
        trail.undo_to(mark)


def _length_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    text = _text(args[0], env)
    if text is None:
        raise InstantiationError("string_length/2: first argument unbound")
    yield from unify_one(args[1], env, Int(len(text)), trail)


def _atom_string_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """atom_string(A, S): conversion in either direction."""
    atom_side, atom_env = deref(args[0], env)
    string_side, _ = deref(args[1], env)
    if isinstance(atom_side, Atom):
        yield from unify_one(args[1], env, Str(atom_side.name), trail)
        return
    if isinstance(string_side, Str):
        yield from unify_one(args[0], env, Atom(string_side.value), trail)
        return
    raise InstantiationError("atom_string/2: both arguments unbound")


def _case_impl(transform):
    def impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
        text = _text(args[0], env)
        if text is None:
            raise InstantiationError("case conversion: first argument unbound")
        yield from unify_one(args[1], env, Str(transform(text)), trail)

    return impl


def _number_string_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """number_string(N, S): parse or print a number."""
    number_side, _ = deref(args[0], env)
    text = _text(args[1], env)
    if isinstance(number_side, (Int, Double)):
        printed = str(number_side.value)
        yield from unify_one(args[1], env, Str(printed), trail)
        return
    if text is None:
        raise InstantiationError("number_string/2: both arguments unbound")
    try:
        value: Arg = Int(int(text))
    except ValueError:
        try:
            value = Double(float(text))
        except ValueError:
            return  # not a number: fail, don't error (test usage)
    yield from unify_one(args[0], env, value, trail)


def _sub_string_impl(args: Sequence[Arg], env: BindEnv, trail: Trail) -> Iterator[None]:
    """sub_string(Whole, Sub): succeeds when Sub (bound) occurs in Whole."""
    whole = _text(args[0], env)
    sub = _text(args[1], env)
    if whole is None or sub is None:
        raise InstantiationError("sub_string/2: both arguments must be bound")
    if sub in whole:
        yield None


def install(registry: BuiltinRegistry) -> None:
    registry.register_function("string_concat", 3, _concat_impl)
    registry.register_function("string_length", 2, _length_impl)
    registry.register_function("atom_string", 2, _atom_string_impl)
    registry.register_function("string_upper", 2, _case_impl(str.upper))
    registry.register_function("string_lower", 2, _case_impl(str.lower))
    registry.register_function("number_string", 2, _number_string_impl)
    registry.register_function("sub_string", 2, _sub_string_impl)
