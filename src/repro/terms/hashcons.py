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

from . import functor
from .base import Arg
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


class InternTable:
    """Dense interning of ground constants for the push compiler.

    Unlike :class:`HashConsTable` (sparse ids for functor terms, shared
    process-wide), an ``InternTable`` is built per push-evaluation run and
    maps *any* ground :class:`Arg` — Int, Double, Str, Atom, or a ground
    functor term — to a small dense integer.  Generated push code then
    compares and hashes plain ints; ``args[ident]`` recovers the original
    Arg for the final flush back into relations, and ``vals[ident]`` holds
    the raw Python value for inlined comparisons/arithmetic.

    Identity follows :meth:`Arg.ground_key` — the same key relations use
    for duplicate elimination — so interning agrees exactly with the
    interpreter's set semantics: ``Int(0)`` and ``Double(0.0)`` stay
    distinct, ``Str("a")`` and ``Atom("a")`` stay distinct, ``-0.0`` and
    ``0.0`` collapse (``Double.__eq__`` does too), and a NaN equals itself
    under dict semantics (same object → same slot) although ``x == x`` is
    false — consistent with how ``HashRelation`` dedups NaN-carrying
    tuples.  Tables are single-run, single-thread: no lock, no clearing —
    the table dies with the run, so interned ids never leak across queries.
    """

    __slots__ = ("_ids", "args", "vals")

    def __init__(self) -> None:
        self._ids: Dict[Any, int] = {}
        #: ident -> original Arg (for flushing results back into relations)
        self.args: list = []
        #: ident -> raw Python value (for inlined arithmetic/comparisons)
        self.vals: list = []

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
            self.vals.append(getattr(arg, "value", arg))
        return ident

    def intern_num(self, value) -> int:
        """Intern a computed Python number (arithmetic results in generated
        code), boxing it lazily only when first seen."""
        key = ("int", value) if isinstance(value, int) else ("dbl", value)
        ident = self._ids.get(key)
        if ident is None:
            from .base import Double, Int

            ident = len(self.args)
            self._ids[key] = ident
            self.args.append(Int(value) if isinstance(value, int) else Double(value))
            self.vals.append(value)
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
