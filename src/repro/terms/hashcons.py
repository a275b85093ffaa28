"""Lazy hash-consing of ground functor terms.

Section 3.1: *"The current implementation of CORAL uses a modified version of
hash-consing that operates in a lazy fashion.  Hash-consing assigns unique
identifiers to each (ground) functor term, such that two (ground) functor
terms unify if and only if their unique identifiers are the same.  We note
that such identifiers cannot be assigned to functor terms that contain free
variables, and these have to be handled differently."*

The table interns structural keys ``(name, child-key...)`` and hands out
monotonically increasing integer identifiers.  Identifiers are assigned only
when first demanded (typically when a term is inserted into a relation or
compared during unification), never eagerly at construction — the "lazy"
part, which keeps term construction cheap for transient terms.

Per-type orthogonality (the paper stresses each type generates identifiers
independently) falls out of :meth:`Arg.ground_key`: a functor's key is built
from its children's keys, whatever types they are, so new abstract data
types compose without any change here.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from ..errors import EvaluationError
from . import functor
from .base import Arg, Atom, Double, Int, Str
from .functor import Functor


class HashConsTable:
    """An intern table mapping structural keys to unique identifiers.

    A fresh table can be created per session for isolation; the module-level
    :data:`GLOBAL_TABLE` serves the common single-session case (CORAL is a
    single-user system, Section 2).
    """

    def __init__(self) -> None:
        self._ids: Dict[Any, int] = {}
        self._terms: Dict[int, Functor] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def hc_id(self, term: Functor) -> int:
        """Return (assigning if needed) the unique id of a ground functor term.

        Iterative post-order over the term's functor subterms: deep terms —
        long lists in particular — are exactly the "large terms" the
        mechanism exists for, so the implementation must not be bounded by
        the host recursion limit.

        Only :data:`GLOBAL_TABLE` caches an id on the term itself (the
        ``_hc_id`` slot that equality, hashing and unification read); a
        private table keeps the ids of one call's subterms to itself, so
        its ids never meet the shared ones.
        """
        if not term._ground:
            raise ValueError(f"cannot hash-cons non-ground term {term}")
        shared = self is GLOBAL_TABLE
        if shared and term._hc_id is not None:
            return term._hc_id
        private: Dict[int, int] = {}  # id(subterm) -> ident, private tables
        stack = [term]
        while stack:
            current = stack[-1]
            if (current._hc_id if shared else private.get(id(current))) is not None:
                stack.pop()  # reached twice
                continue
            key: Optional[list] = [current.name]
            for arg in current.args:
                if not isinstance(arg, Functor):
                    key.append(arg.ground_key())
                    continue
                child = arg._hc_id if shared else private.get(id(arg))
                if child is None:
                    stack.append(arg)  # first that one, then this one again
                    key = None
                    break
                key.append(("hc", child))
            if key is None:
                continue
            key = tuple(key)
            with self._lock:
                ident = self._ids.get(key)
                if ident is None:
                    ident = len(self._ids) + 1
                    self._ids[key] = ident
                    self._terms[ident] = current
            if shared:
                object.__setattr__(current, "_hc_id", ident)
            else:
                private[id(current)] = ident
            stack.pop()
        return term._hc_id if shared else private[id(term)]

    def term_for(self, ident: int) -> Optional[Functor]:
        """The canonical term first interned under ``ident`` (or None)."""
        return self._terms.get(ident)

    def canonical(self, term: Functor) -> Functor:
        """The canonical representative structurally equal to ``term``.

        Sharing representatives turns deep equality checks into pointer
        comparisons — the paper's structure-sharing optimization.
        """
        return self._terms[self.hc_id(term)]

    def clear(self) -> None:
        """Drop all interned terms.  For private tables: the shared table's
        ids live on in the terms that cached them."""
        with self._lock:
            self._ids.clear()
            self._terms.clear()


class Symbol:
    """A non-numeric constant as push-generated code sees it in a
    comparison or an arithmetic expression.

    The interpreter's comparison builtins order numbers among numbers,
    strings among strings and atoms among atoms, and raise a type mismatch
    otherwise; ``==``/``!=`` across kinds are plain false/true; a
    structured term cannot be compared at all, and nothing but a number is
    an arithmetic operand.  Numbers reach generated code as raw Python
    numbers; every other constant is a ``Symbol``, whose operators keep
    exactly those rules (a raw ``str`` would let ``"a" == a`` hold and
    ``"a" + "b"`` concatenate)."""

    __slots__ = ("rank", "term")

    def __init__(self, rank: int, term: Arg) -> None:
        #: 1 a string, 2 an atom, 3 anything else (never ordered)
        self.rank = rank
        self.term = term

    def _same_kind(self, other: object, op: str, ordered: bool = True) -> bool:
        """Whether ``other`` is a string or atom of this kind; raises where
        the interpreter does (a term, or ordering across kinds)."""
        other_rank = other.rank if isinstance(other, Symbol) else 0
        if self.rank == 3 or other_rank == 3:
            raise EvaluationError(f"cannot compare term {self.term} with {op!r}")
        if other_rank == self.rank or not ordered:
            return other_rank == self.rank
        shown = other.term if isinstance(other, Symbol) else other
        raise EvaluationError(
            f"type mismatch in comparison {op!r}: {self.term} vs {shown}"
        )

    def __lt__(self, other):
        return self._same_kind(other, "<") and self.term.value < other.term.value

    def __le__(self, other):
        return self._same_kind(other, "<=") and self.term.value <= other.term.value

    def __gt__(self, other):
        return self._same_kind(other, ">") and self.term.value > other.term.value

    def __ge__(self, other):
        return self._same_kind(other, ">=") and self.term.value >= other.term.value

    def __eq__(self, other):
        return (
            self._same_kind(other, "==", ordered=False)
            and self.term.value == other.term.value
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None

    def _not_a_number(self, *_):
        raise EvaluationError(f"non-numeric operand {self.term} in arithmetic")

    __add__ = __radd__ = __sub__ = __rsub__ = _not_a_number
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _not_a_number


def operand(arg: Arg):
    """What generated code computes and compares for a ground Arg."""
    if isinstance(arg, (Int, Double)):
        return arg.value
    if isinstance(arg, Str):
        return Symbol(1, arg)
    if isinstance(arg, Atom):
        return Symbol(2, arg)
    return Symbol(3, arg)


class InternTable:
    """Dense interning of ground constants for the push compiler.

    Unlike :class:`HashConsTable` (sparse ids for functor terms, shared
    process-wide), an ``InternTable`` maps *any* ground :class:`Arg` —
    Int, Double, Str, Atom, or a ground functor term — to a small dense
    integer.  Generated push code then compares and hashes plain ints;
    ``args[ident]`` recovers the original Arg for the final flush back into
    relations, and ``vals[ident]`` holds its :func:`operand` for inlined
    comparisons/arithmetic.

    Identity follows :meth:`Arg.ground_key` — the same key relations use
    for duplicate elimination — so interning agrees exactly with the
    interpreter's set semantics: ``Int(0)`` and ``Double(0.0)`` stay
    distinct, ``Str("a")`` and ``Atom("a")`` stay distinct, ``-0.0`` and
    ``0.0`` collapse (``Double.__eq__`` does too), and a NaN equals itself
    under dict semantics (same object → same slot) although ``x == x`` is
    false — consistent with how ``HashRelation`` dedups NaN-carrying
    tuples.  One table lives as long as its session's push state
    (``compilemod.push.PushState``), single-threaded like the evaluator: the
    ids of resident base tuples stay valid across queries, and whatever a
    run interns beyond them (its seeds, the numbers it computes) is dropped
    again by :meth:`truncate` when the run ends.
    """

    __slots__ = ("_ids", "args", "vals", "keys", "functors")

    def __init__(self) -> None:
        self._ids: Dict[Any, int] = {}
        #: ident -> original Arg (for flushing results back into relations)
        self.args: list = []
        #: ident -> its operand (for inlined arithmetic/comparisons)
        self.vals: list = []
        #: ident -> its ground key (a flushed tuple's duplicate key is
        #: these, position by position)
        self.keys: list = []
        #: the idents of functor terms, ascending
        self.functors: list = []

    def __len__(self) -> int:
        return len(self.args)

    def intern(self, arg: Arg) -> int:
        """The dense id of a ground Arg (assigning one on first sight)."""
        key = arg.ground_key()
        ident = self._ids.get(key)
        if ident is None:
            ident = len(self.args)
            self._ids[key] = ident
            self.args.append(arg)
            self.vals.append(operand(arg))
            self.keys.append(key)
            if isinstance(arg, Functor):
                self.functors.append(ident)
        return ident

    def find(self, arg: Arg) -> Optional[int]:
        """The id of a ground Arg if it was interned, else None."""
        return self._ids.get(arg.ground_key())

    def truncate(self, size: int) -> None:
        """Forget every id from ``size`` on (ids are dense, so the rest stay
        valid)."""
        ids = self._ids
        for key in self.keys[size:]:
            ids.pop(key, None)
        del self.keys[size:]
        del self.args[size:]
        del self.vals[size:]
        functors = self.functors
        while functors and functors[-1] >= size:
            functors.pop()

    def intern_num(self, value) -> int:
        """Intern a computed Python number (arithmetic results in generated
        code), boxing it lazily only when first seen."""
        key = ("int", value) if isinstance(value, int) else ("dbl", value)
        ident = self._ids.get(key)
        if ident is None:
            ident = len(self.args)
            self._ids[key] = ident
            self.args.append(Int(value) if isinstance(value, int) else Double(value))
            self.vals.append(value)
            self.keys.append(key)
        return ident

    def arg_for(self, ident: int) -> Arg:
        """The canonical Arg first interned under ``ident``."""
        return self.args[ident]


#: The process-wide table used by default.
GLOBAL_TABLE = HashConsTable()

# the one table whose ids functor terms cache, equality and hashing included
functor._intern = GLOBAL_TABLE.hc_id


def hc_id(term: Functor, table: HashConsTable | None = None) -> int:
    """Unique identifier for a ground functor term (module-level shorthand)."""
    return (table or GLOBAL_TABLE).hc_id(term)


def canonical(term: Functor, table: HashConsTable | None = None) -> Functor:
    """Canonical shared representative of a ground functor term."""
    return (table or GLOBAL_TABLE).canonical(term)
