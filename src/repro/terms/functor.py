"""Functor terms and lists.

Section 3.1: *"Terms can be built from a function symbol, or functor, and
such terms are important for representing structured information.  For
instance, lists are a special type of functor term.  A term f(X, 10, Y) is
represented by a record containing (1) the function symbol f, (2) an array of
arguments, and (3) extra information to make unification of such terms
efficient."*

The "extra information" is the lazily assigned hash-consing identifier
(:mod:`repro.terms.hashcons`), cached in the ``_hc_id`` slot, plus the cached
groundness bit.  Lists use the conventional cons representation:
``[1,2]`` is ``'.'(1, '.'(2, []))`` with ``[]`` the :data:`NIL` atom.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Sequence

from .base import Arg, Atom
from .variable import Var

#: The functor name used for list cons cells.
CONS = "."

#: The empty list.
NIL = Atom("[]")


class Functor(Arg):
    """A complex term ``name(arg1, ..., argN)``.

    Immutable; arguments are stored as a tuple.  Groundness is computed once
    at construction (cheap, and almost every term is inspected for it), while
    the hash-consing identifier is assigned *lazily* on first demand, as in
    the paper's "modified version of hash-consing that operates in a lazy
    fashion".
    """

    __slots__ = ("name", "args", "_ground", "_hash", "_hc_id")
    kind = "func"

    def __init__(self, name: str, args: Sequence[Arg]) -> None:
        args = tuple(args)
        ground = True
        for arg in args:
            if not arg.is_ground():
                ground = False
                break
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_ground", ground)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_hc_id", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Functor is immutable")

    # -- Arg contract -------------------------------------------------------

    def is_ground(self) -> bool:
        return self._ground

    def variables(self) -> Iterator[Arg]:
        # iterative, left to right: a long open list is one chain of cells
        if self._ground:
            return
        stack = [iter(self.args)]
        while stack:
            for arg in stack[-1]:
                if arg.__class__ is Var:
                    yield arg
                elif arg.__class__ is Functor and not arg._ground:
                    stack.append(iter(arg.args))
                    break
            else:
                stack.pop()

    def subterms(self) -> Iterator[Arg]:
        yield self
        for arg in self.args:
            yield from arg.subterms()

    def functor_arity(self) -> int:
        return len(self.args)

    def ground_key(self) -> Any:
        """Key on the hash-consed identifier (Section 3.1).

        Two ground functor terms unify iff their identifiers are equal, so
        the identifier is a sound and complete duplicate-detection key.
        """
        return ("hc", self._hc_id or _intern(self))

    def equals(self, other: Arg) -> bool:
        return self == other

    def __eq__(self, other: object) -> bool:
        """Ground terms are equal iff their identifiers are (assigned on
        demand); any other pair is compared structurally, iteratively, so a
        long list is not bounded by the host recursion limit."""
        if self is other:
            return True
        if not isinstance(other, Functor):
            return False
        if self._ground and other._ground:
            return (self._hc_id or _intern(self)) == (other._hc_id or _intern(other))
        return _equal(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        if self._ground:
            return self._hc_id or _intern(self)
        cached = self._hash
        if cached is None:
            cached = _structural_hash(self)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        return f"Functor({self.name!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        elements, tail = _list_parts(self)
        if elements is not None:
            inner = ", ".join(str(item) for item in elements)
            if tail is None:
                return f"[{inner}]"
            return f"[{inner}|{tail}]"
        if self.name in ("+", "-", "*", "/") and len(self.args) == 2:
            # arithmetic prints infix so printed programs re-parse
            # (the rewritten-program listing is a consultable text file)
            return f"({self.args[0]} {self.name} {self.args[1]})"
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.name}({inner})"


#: The hash-consed identifier of a ground term, assigned on first demand —
#: the slow path behind every ``term._hc_id or _intern(term)``.  It is
#: :data:`repro.terms.hashcons.GLOBAL_TABLE`'s ``hc_id``, installed by that
#: module (which imports this one).
_intern: Callable[[Functor], int]


def _equal(left: Functor, right: Functor) -> bool:
    """Structural equality of two functor terms, one of them non-ground."""
    stack = [(left, right)]
    while stack:
        left, right = stack.pop()
        if left is right:
            continue
        if not isinstance(left, Functor):
            if not left == right:
                return False
            continue
        if (
            not isinstance(right, Functor)
            or left.name != right.name
            or len(left.args) != len(right.args)
            or left._ground is not right._ground
        ):
            return False
        if left._ground:
            if (left._hc_id or _intern(left)) != (right._hc_id or _intern(right)):
                return False
            continue
        stack.extend(zip(left.args, right.args))
    return True


def _structural_hash(term: Functor) -> int:
    """A hash of a non-ground term consistent with :func:`_equal`: its
    pre-order, with each functor's name and arity and each ground functor
    subterm's identifier."""
    parts: list = []
    stack: list = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Functor):
            if current._ground:
                parts.append(current._hc_id or _intern(current))
                continue
            parts.append((current.name, len(current.args)))
            stack.extend(reversed(current.args))
        else:
            parts.append(hash(current))
    return hash(tuple(parts))


# -- list helpers -----------------------------------------------------------


def cons(head: Arg, tail: Arg) -> Functor:
    """Build one list cell ``[Head|Tail]``."""
    return Functor(CONS, (head, tail))


def make_list(items: Sequence[Arg], tail: Arg = NIL) -> Arg:
    """Build a (possibly improper) list term from a Python sequence."""
    term: Arg = tail
    for item in reversed(items):
        term = cons(item, term)
    return term


def is_cons(term: Arg) -> bool:
    """True for a non-empty list cell."""
    return isinstance(term, Functor) and term.name == CONS and len(term.args) == 2


def is_nil(term: Arg) -> bool:
    """True for the empty list."""
    return term == NIL


def _list_parts(term: Arg) -> tuple[Optional[list[Arg]], Optional[Arg]]:
    """Split a term into (elements, improper-tail).

    Returns ``(None, None)`` when the term is not list-shaped at all,
    ``(elements, None)`` for a proper list, and ``(elements, tail)`` for a
    partial list such as ``[X|Rest]``.
    """
    if not (is_cons(term) or is_nil(term)):
        return None, None
    elements: list[Arg] = []
    while is_cons(term):
        assert isinstance(term, Functor)
        elements.append(term.args[0])
        term = term.args[1]
    if is_nil(term):
        return elements, None
    return elements, term


def list_elements(term: Arg) -> Optional[list[Arg]]:
    """The elements of a *proper* list term, or None."""
    elements, tail = _list_parts(term)
    if elements is None or tail is not None:
        return None
    return elements
