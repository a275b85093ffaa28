"""The ``Arg`` class hierarchy: the root of all CORAL data types.

Section 3 of the paper: *"CORAL provides the generic class Arg that is the
root of all CORAL data-types; specific types such as integers, strings, or
other abstract data-types are subclasses of Arg.  The class Arg defines a set
of virtual methods such as equals, hash, and print, which must be defined for
each abstract data-type that is created."*

This module defines :class:`Arg` and the primitive constant types the paper
lists in Section 3.1: integers, doubles, strings, and arbitrary-precision
integers (the paper used DEC's BigNum package; Python integers are natively
arbitrary precision, so :class:`BigNum` shares the integer implementation).

Symbols (unquoted lowercase identifiers such as ``john``) are represented by
:class:`Atom`; they behave as interned string constants and double as
zero-arity functor names.

Design notes
------------
* Terms are **immutable**; all subclasses use ``__slots__`` and define value
  equality and hashing, so terms can key dictionaries directly.  This is the
  foundation for the hash-based relation and index implementations.
* ``equals``/``hash_value``/``construct`` and ``__str__`` (print) form the
  abstract-data-type contract of Section 7.1; user-defined types subclass
  :class:`Arg` and the rest of the system manipulates them only through this
  interface.
"""

from __future__ import annotations

from typing import Any, Iterator


class Arg:
    """Root of the CORAL data-type hierarchy.

    Every value manipulated by the system — constants, variables, functor
    terms, and user-defined abstract data types — is an :class:`Arg`.
    System code touches values only through this interface, which is what
    makes the type system extensible (Section 7.1): defining a new type
    requires no change to the evaluator.
    """

    __slots__ = ()

    #: short tag used by the serializer and pattern indexes
    kind: str = "arg"

    # -- the virtual-method contract (Section 7.1) -------------------------

    def equals(self, other: "Arg") -> bool:
        """Structural equality.  Mirrors the paper's ``equals`` virtual."""
        return self == other

    def hash_value(self) -> int:
        """Hash consistent with :meth:`equals` (the paper's ``hash``)."""
        return hash(self)

    @classmethod
    def construct(cls, *parts: Any) -> "Arg":
        """Re-create an instance from its printed parts (the paper's
        ``construct``, used to rebuild objects from text files)."""
        return cls(*parts)  # type: ignore[call-arg]

    # -- term structure -----------------------------------------------------

    def is_ground(self) -> bool:
        """True when the term contains no free variables."""
        return True

    def variables(self) -> Iterator["Arg"]:
        """Yield each free variable occurrence (with repetition)."""
        return iter(())

    def subterms(self) -> Iterator["Arg"]:
        """Yield ``self`` and every nested subterm, pre-order."""
        yield self

    def ground_key(self) -> Any:
        """A hashable key identifying this term up to :meth:`equals`.

        For ground terms only.  Primitive constants key on ``(tag, value)``;
        functor terms key on their hash-consed identifier (Section 3.1).
        """
        return self

    def functor_arity(self) -> int:
        """Arity when viewed as a functor term; 0 for constants."""
        return 0


class _Primitive(Arg):
    """Shared implementation for the primitive constant types."""

    __slots__ = ("value",)
    kind = "prim"

    def __init__(self, value: Any) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        # Compare by kind, not concrete class, so BigNum == Int holds for
        # equal values (both are integers; BigNum only marks the source type).
        return (
            isinstance(other, _Primitive)
            and other.kind == self.kind
            and other.value == self.value
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    def ground_key(self) -> Any:
        return (self.kind, self.value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class Int(_Primitive):
    """A machine integer constant."""

    __slots__ = ()
    kind = "int"

    def __init__(self, value: int) -> None:
        super().__init__(int(value))


class BigNum(Int):
    """An arbitrary-precision integer.

    The paper supported these through DEC France's BigNum package; Python
    integers are arbitrary precision already, so this subclass exists to
    preserve the type distinction (``bignum(N)`` in source text) while
    sharing all behaviour with :class:`Int`.
    """

    __slots__ = ()
    kind = "int"  # compares equal to Int of the same value


class Double(_Primitive):
    """A double-precision floating point constant."""

    __slots__ = ()
    kind = "dbl"

    def __init__(self, value: float) -> None:
        super().__init__(float(value))


class Str(_Primitive):
    """A quoted string constant."""

    __slots__ = ()
    kind = "str"

    def __init__(self, value: str) -> None:
        super().__init__(str(value))

    def __str__(self) -> str:
        # escaped as the lexer reads them, so a printed string re-parses
        return f'"{self.value.translate(_STRING_ESCAPES)}"'


_STRING_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}
)


class Atom(_Primitive):
    """A symbolic constant (an unquoted lowercase identifier).

    Atoms are distinct from strings: ``john`` and ``"john"`` do not unify.
    An atom is also what a zero-arity functor term collapses to.
    """

    __slots__ = ()
    kind = "atom"

    def __init__(self, name: str) -> None:
        super().__init__(str(name))

    @property
    def name(self) -> str:
        return self.value

    def __str__(self) -> str:
        return self.value


#: The constant classes the join kernel may compare by ``.value`` when both
#: sides have the *same* class (``a.__class__ is b.__class__``).  A closed
#: set: :class:`BigNum` (equal to an :class:`Int` by ``kind``) and
#: user-defined :class:`Arg` subclasses are compared through ``equals``.
FLAT_PRIMITIVES = frozenset((Int, Double, Str, Atom))


#: Values acceptable wherever a term is expected from host-language (Python)
#: code; :func:`to_arg` lifts them.
PyValue = Any


def to_arg(value: PyValue) -> Arg:
    """Lift a Python value into the :class:`Arg` hierarchy.

    Used throughout the imperative API (Section 6) so host code can pass
    plain ints, floats, strings, lists and tuples.  Strings become atoms
    when they look like identifiers and quoted strings otherwise — matching
    how the parser reads the same text.
    """
    from .functor import Functor, make_list  # local import to avoid a cycle

    if isinstance(value, Arg):
        return value
    if isinstance(value, bool):  # bool before int: True is an int in Python
        return Atom("true" if value else "false")
    if isinstance(value, int):
        return Int(value)
    if isinstance(value, float):
        return Double(value)
    if isinstance(value, str):
        if value.isidentifier() and value[:1].islower():
            return Atom(value)
        return Str(value)
    if isinstance(value, (list, tuple)):
        return make_list([to_arg(item) for item in value])
    raise TypeError(f"cannot convert {value!r} to a CORAL term")


def from_arg(term: Arg) -> PyValue:
    """Lower a ground term back to a plain Python value where possible.

    Functor terms that are proper lists become Python lists; other functor
    terms and variables are returned unchanged (host code can still inspect
    them through the Arg interface).
    """
    if isinstance(term, (Int, Double, Str)):
        return term.value
    if isinstance(term, Atom):
        return term.name
    from .functor import Functor, list_elements  # after the common cases

    if isinstance(term, Functor):
        elements = list_elements(term)
        if elements is not None:
            return [from_arg(item) for item in elements]
    return term
