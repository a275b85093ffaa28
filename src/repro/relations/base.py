"""Tuples, the ``Relation`` abstract interface, and tuple iterators.

Section 3: *"The class Tuple defines tuples of Args.  A member of the class
Relation is a set of tuples.  The class Relation has a number of virtual
methods defined on it.  These include insert(Tuple*), delete(Tuple*), and an
iterator interface that allows tuples to be fetched from the relation, one at
a time.  The iterator is implemented using a member of a TupleIterator class
that is used to store the state or position of a scan on the relation, and to
allow multiple concurrent scans over the same relation."*

The iterator interface is the system-wide *get-next-tuple* abstraction
(Section 2): every relation — in-memory, persistent, derived by rules, or
defined by host-language code — presents exactly this surface, which is what
lets modules with different evaluation strategies interact transparently
(Section 5.6) and new relation implementations slot in without evaluator
changes (Section 7.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..errors import CoralError
from ..terms import (
    Arg,
    BindEnv,
    Trail,
    Var,
    canonicalize_term,
    rename_term,
    resolve,
)


class Tuple:
    """An immutable tuple of :class:`Arg` values.

    Tuples stored in relations are *standalone*: their variables (if any —
    CORAL permits non-ground facts, Section 3.1) are interpreted without an
    external binding environment and are universally quantified.
    """

    __slots__ = ("args", "_ground", "_key", "seqno")

    def __init__(self, args: Sequence[Arg]) -> None:
        self.args = tuple(args)
        self._ground = all(arg.is_ground() for arg in self.args)
        self._key: Any = None
        #: insertion sequence number, stamped by the relation that stores
        #: the tuple (which keeps its own copy: a later insert of the same
        #: tuple elsewhere restamps this one)
        self.seqno: int = -1

    @classmethod
    def ground(cls, args: Sequence[Arg]) -> "Tuple":
        """A tuple the caller guarantees is ground — skips the groundness
        walk.  The interpreter's ``instantiate_head`` makes one per
        inference whenever every head argument came out a primitive
        constant, and context factoring's answer reassembly one per ground
        answer."""
        tup = cls.__new__(cls)
        tup.args = tuple(args)
        tup._ground = True
        tup._key = None
        tup.seqno = -1
        return tup

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return self._ground

    def key(self) -> Any:
        """A hashable duplicate-detection key.

        Ground tuples key on their arguments' hash-consed/ground keys; a
        non-ground tuple keys on its canonical form (variables renamed to a
        fixed sequence), so *variants* get the same key.
        """
        cached = self._key
        if cached is None:
            if self._ground:
                cached = tuple(arg.ground_key() for arg in self.args)
            else:
                mapping: Dict[int, Var] = {}
                canon = tuple(canonicalize_term(arg, mapping) for arg in self.args)
                cached = ("~", canon)
            self._key = cached
        return cached

    def renamed(self) -> "Tuple":
        """A copy with fresh variables (standardize apart before use).

        Ground tuples are returned as-is — the common fast path.
        """
        if self._ground:
            return self
        mapping: Dict[int, Var] = {}
        return Tuple(tuple(rename_term(arg, mapping) for arg in self.args))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        if self._ground != other._ground:
            return False
        return self.key() == other.key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(self.key())

    def __len__(self) -> int:
        return len(self.args)

    def __getitem__(self, index: int) -> Arg:
        return self.args[index]

    def __iter__(self) -> Iterator[Arg]:
        return iter(self.args)

    def __repr__(self) -> str:
        return f"Tuple({list(self.args)!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(arg) for arg in self.args) + ")"


def make_tuple(terms: Sequence[Arg], env: Optional[BindEnv]) -> Tuple:
    """Build a standalone tuple by resolving ``terms`` under ``env``.

    This is how a satisfied rule head becomes a fact: bindings are
    substituted in, and any remaining free variables stay universally
    quantified in the new fact.
    """
    return Tuple(tuple(resolve(term, env) for term in terms))


class TupleIterator(ABC):
    """State of one scan over a relation (the paper's TupleIterator; the
    footnote compares it to an SQL cursor).

    ``get_next()`` returns the next matching tuple or ``None`` when the scan
    is exhausted — the *get-next-tuple* interface.  Multiple iterators over
    the same relation may be open concurrently; each holds its own position.
    """

    #: True when every tuple it yields was built for this cursor and is held
    #: by nothing else — a consumer may keep one without copying it
    owned = False
    #: True when it yields plain tuples of ground args that match the scan
    #: as they stand (:class:`RowCursor`), not :class:`Tuple` objects
    plain = False

    @abstractmethod
    def get_next(self) -> Optional[Tuple]:
        """The next tuple, or None when exhausted."""

    def close(self) -> None:
        """Release scan resources (pinned pages, etc.).  Default: nothing."""

    def __iter__(self) -> Iterator[Tuple]:
        while True:
            item = self.get_next()
            if item is None:
                return
            yield item


class ListTupleIterator(TupleIterator):
    """Iterator over a materialized Python list of tuples."""

    def __init__(self, items: Sequence[Tuple]) -> None:
        self._items = items
        self._position = 0

    def get_next(self) -> Optional[Tuple]:
        if self._position >= len(self._items):
            return None
        item = self._items[self._position]
        self._position += 1
        return item


class GeneratorTupleIterator(TupleIterator):
    """Adapter from any Python iterator of tuples to the cursor interface."""

    def __init__(self, source: Iterable[Tuple]) -> None:
        self._source = iter(source)

    def get_next(self) -> Optional[Tuple]:
        return next(self._source, None)

    def __iter__(self) -> Iterator[Tuple]:
        # the source itself: iterating adds no generator layer per tuple
        return self._source


class RowCursor(TupleIterator):
    """A module call's answers: :class:`Tuple` objects, or if ``plain``,
    plain tuples of ground args built for this cursor alone that match the
    call as it stands.  A tuple consumer gets every answer as a Tuple (a
    plain row becomes one as it is pulled); the top-level answer loop,
    which reads values and builds a Tuple only when asked, takes plain
    :meth:`rows` as they are."""

    def __init__(self, rows: Iterator, owned: bool, plain: bool = False) -> None:
        self._rows = rows
        self.owned = owned
        self.plain = plain

    def get_next(self) -> Optional[Tuple]:
        row = next(self._rows, None)
        return Tuple.ground(row) if self.plain and row is not None else row

    def __iter__(self) -> Iterator[Tuple]:
        return map(Tuple.ground, self._rows) if self.plain else self._rows

    def rows(self) -> Iterator:
        return self._rows

    def close(self) -> None:
        self._rows.close()


class Relation(ABC):
    """Abstract relation: a set (or multiset) of tuples of a fixed arity.

    Subclasses: hash relations and list relations in memory
    (:mod:`repro.relations.memory`), persistent relations over the storage
    manager (:mod:`repro.storage.relation`), derived relations presented by
    module evaluation (:mod:`repro.modules`), and relations computed by
    host-language functions (:mod:`repro.api`).  The evaluator depends only
    on this interface.
    """

    def __init__(self, name: str, arity: int) -> None:
        if arity < 0:
            raise CoralError(f"negative arity for relation {name}")
        self.name = name
        self.arity = arity

    # -- update interface ----------------------------------------------------

    @abstractmethod
    def insert(self, tup: Tuple) -> bool:
        """Insert a tuple.  Returns True when the relation grew (i.e. the
        tuple was not a duplicate / not subsumed under the relation's
        duplicate-check policy)."""

    @abstractmethod
    def delete(self, tup: Tuple) -> bool:
        """Delete a tuple (exact match).  Returns True when found."""

    # -- scan interface --------------------------------------------------------

    @abstractmethod
    def scan(
        self,
        pattern: Optional[Sequence[Arg]] = None,
        env: Optional[BindEnv] = None,
    ) -> TupleIterator:
        """Open a cursor over tuples matching ``pattern``.

        ``pattern`` is a sequence of terms interpreted under ``env``; bound
        positions act as a selection, which an index may serve.  Tuples
        returned are *candidates*: the caller still unifies the full literal
        against each (indexes may over-approximate, never under-approximate).
        With no pattern, the scan covers the whole relation.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored tuples."""

    # -- conveniences ---------------------------------------------------------

    def insert_values(self, *values: Any) -> bool:
        """Insert from plain Python values (host-language convenience)."""
        from ..terms import to_arg

        if len(values) != self.arity:
            raise CoralError(
                f"{self.name} has arity {self.arity}, got {len(values)} values"
            )
        return self.insert(Tuple(tuple(to_arg(v) for v in values)))

    def contains(self, tup: Tuple) -> bool:
        """Membership test (exact duplicate semantics of this relation)."""
        cursor = self.scan(tup.args, None)
        try:
            for candidate in cursor:
                if candidate == tup:
                    return True
            return False
        finally:
            cursor.close()

    def all_tuples(self) -> List[Tuple]:
        """Materialize the whole relation as a list (testing convenience)."""
        return list(self.scan())

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.scan())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}/{self.arity} ({len(self)} tuples)>"
