"""In-memory relation implementations: hash relations, list relations,
multisets, and the *marks* mechanism.

Section 3.2: *"CORAL currently supports in-memory hash-relations ...  The
first and most important extension is the ability to get marks into a
relation, and distinguish between facts inserted after a mark was obtained
and facts inserted before the mark was obtained.  This feature is important
for the implementation of all variants of semi-naive evaluation.  The
implementation of this extension involves creating subsidiary relations, one
corresponding to each interval between marks, and transparently providing the
union of the subsidiary relations corresponding to the desired range of
marks.  A benefit of this organization is that it does not interfere with the
indexing mechanisms used for the relation (the indexing mechanisms are used
on each subsidiary relation)."*

Exactly that design: a :class:`HashRelation` is a list of
:class:`_Segment` subsidiary relations.  ``mark()`` closes the current
segment and opens a new one; a mark is a segment position, and a ranged
scan unions the segments between two marks.  Every index spec is realised
once per segment, so delta scans are indexed for free.

Marks belong to the evaluation that owns the relation: the fixpoint's delta
windows over its local relations, and the lazy answer cursor.  A reader of
a relation it does not own — push's resident copy of a base relation, a
memo entry or live view catching up with inserts, save-module resumption —
keeps a :class:`Watermark` instead: an insertion number past every tuple
it has taken in, read back through :meth:`MarkedRelation.inserted_after`.
Looking takes no mark, so readers never split a relation into segments.

Duplicate semantics (Section 4.2): the default policy performs subsumption
checks — a new fact is discarded when an equal fact (ground) or a variant or
more general fact (non-ground, Section 3.1) is already stored.  A relation
may instead be declared a *multiset*, keeping one copy per derivation; the
optimizer then restricts duplicate checks to the magic predicates.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..errors import CoralError
from ..terms import Arg, BindEnv
from ..terms.unify import subsumes_all
from .base import GeneratorTupleIterator, Relation, Tuple, TupleIterator
from .index import Index, IndexSpec

_next_seqno = itertools.count(1)


class DuplicatePolicy(Enum):
    """How a relation treats re-derived facts (Section 4.2)."""

    #: set semantics with subsumption checks (the system default)
    SET = "set"
    #: multiset semantics: one copy per derivation, no checks
    MULTISET = "multiset"


class _Segment:
    """One subsidiary relation: the tuples inserted between two marks.

    Holds its own realised indexes, as the paper prescribes, so indexed
    access works uniformly on full scans and on delta scans.
    """

    __slots__ = ("tuples", "indexes")

    def __init__(self, specs: Sequence[IndexSpec]) -> None:
        #: seqno -> tuple, in insertion order (dict preserves it)
        self.tuples: Dict[int, Tuple] = {}
        self.indexes: List[Index] = [Index(spec) for spec in specs]

    def insert(self, tup: Tuple) -> None:
        self.tuples[tup.seqno] = tup
        for index in self.indexes:
            index.insert(tup)

    def delete(self, tup: Tuple) -> bool:
        if tup.seqno not in self.tuples:
            return False
        del self.tuples[tup.seqno]
        for index in self.indexes:
            index.delete(tup)
        return True

    def add_index(self, spec: IndexSpec) -> None:
        index = Index(spec)
        for tup in self.tuples.values():
            index.insert(tup)
        self.indexes.append(index)

    def __len__(self) -> int:
        return len(self.tuples)


class MarkedRelation(Relation):
    """Base class for in-memory relations supporting marks and indexes."""

    def mark(self) -> int:
        """Get a mark: facts inserted later are distinguishable from facts
        inserted earlier (Section 3.2).  Returns a mark usable as the
        ``since``/``until`` of a ranged scan; ``0`` means "from the start".
        Only the evaluation that owns the relation takes marks."""
        raise NotImplementedError

    def scan(
        self,
        pattern: Optional[Sequence[Arg]] = None,
        env: Optional[BindEnv] = None,
        since: int = 0,
        until: Optional[int] = None,
    ) -> TupleIterator:
        raise NotImplementedError

    def count_since(self, mark: int) -> int:
        """How many tuples were inserted at or after ``mark`` (net of
        deletions) — the fixpoint's "did this iteration produce anything"
        test."""
        raise NotImplementedError

    def inserted_after(self, seqno: int) -> List[Tuple]:
        """The stored tuples numbered past ``seqno`` (by the relation's own
        numbering; ``0`` means all of them), oldest first — what a
        :class:`Watermark` reads."""
        raise NotImplementedError


class Watermark:
    """How far a reader of a relation it does not own has read: a number
    from the insertion clock, past every tuple it has taken in.  The
    relation keeps each tuple under the number it arrived with (not
    ``Tuple.seqno``, which a later insert of the same object elsewhere
    restamps), so what arrived since is what is numbered past it.  Looking
    takes no mark: the relation's segments are its owner's."""

    __slots__ = ("relation", "seqno")

    def __init__(self, relation: MarkedRelation) -> None:
        self.relation = relation
        #: "now": everything stored counts as taken in
        self.seqno = next(_next_seqno)

    def arrivals(self) -> List[Tuple]:
        """The tuples inserted since, oldest first; taken in from now on."""
        arrived = self.relation.inserted_after(self.seqno)
        if arrived:
            self.seqno = next(_next_seqno)
        return arrived


class HashRelation(MarkedRelation):
    """The workhorse in-memory relation: hashed duplicate detection,
    argument- and pattern-form indexes, marks via subsidiary segments."""

    def __init__(
        self,
        name: str,
        arity: int,
        policy: DuplicatePolicy = DuplicatePolicy.SET,
    ) -> None:
        super().__init__(name, arity)
        self.policy = policy
        self._specs: List[IndexSpec] = []
        #: positions into ``_specs``, widest key first (ties: registration
        #: order) — the order in which a probe tries them
        self._probe_order: List[int] = []
        #: subsidiary relations in mark order; the last one is open
        self._segments: List[_Segment] = [_Segment(self._specs)]
        #: duplicate-detection key -> representative tuple (SET policy)
        self._by_key: Dict[Any, Tuple] = {}
        #: stored non-ground tuples, for subsumption checks of new facts
        self._nonground: List[Tuple] = []
        self._count = 0
        #: statistics: how many insert attempts were rejected as duplicates
        self.duplicates_rejected = 0

    # -- marks ---------------------------------------------------------------

    def mark(self) -> int:
        if len(self._segments[-1]):
            self._segments.append(_Segment(self._specs))
        return len(self._segments) - 1

    def count_since(self, mark: int) -> int:
        return sum(len(segment) for segment in self._segments[mark:])

    def segment_count(self) -> int:
        """How many subsidiary relations a full scan walks."""
        return len(self._segments)

    def inserted_after(self, seqno: int) -> List[Tuple]:
        # numbers grow with every insert and only the last segment takes
        # inserts, so the newest tuples are at the end: walk back to seqno
        arrived: List[Tuple] = []
        for segment in reversed(self._segments):
            for number, tup in reversed(segment.tuples.items()):
                if number <= seqno:
                    return arrived[::-1]
                arrived.append(tup)
        return arrived[::-1]

    # -- updates --------------------------------------------------------------

    def _is_duplicate(self, tup: Tuple) -> bool:
        if tup.key() in self._by_key:
            return True
        for general in self._nonground:
            if general is not tup and subsumes_all(general.args, tup.args):
                return True
        return False

    def insert(self, tup: Tuple) -> bool:
        if len(tup.args) != self.arity:
            raise CoralError(
                f"arity mismatch inserting into {self.name}/{self.arity}: {tup}"
            )
        if self.policy is DuplicatePolicy.SET and self._is_duplicate(tup):
            self.duplicates_rejected += 1
            return False
        tup.seqno = next(_next_seqno)
        self._segments[-1].insert(tup)
        if self.policy is DuplicatePolicy.SET:
            self._by_key[tup.key()] = tup
        if not tup.is_ground():
            self._nonground.append(tup)
        self._count += 1
        return True

    def extend_new(self, tuples) -> int:
        """Bulk-insert tuples the caller guarantees are ground, of the right
        arity, and not already present — no duplicate or subsumption checks.

        The push evaluator's flush qualifies: it seeds its ``seen`` set from
        this relation's contents, so everything beyond the seed prefix is
        genuinely new.  Marks and indexes are maintained exactly as
        :meth:`insert` would."""
        segment = self._segments[-1]
        by_key = self._by_key if self.policy is DuplicatePolicy.SET else None
        count = 0
        for tup in tuples:
            tup.seqno = next(_next_seqno)
            segment.insert(tup)
            if by_key is not None:
                by_key[tup.key()] = tup
            count += 1
        self._count += count
        return count

    def find(self, tup: Tuple) -> Optional[Tuple]:
        """The stored tuple equal to ``tup`` (for a non-ground fact, a
        variant of it), or None."""
        if self.policy is DuplicatePolicy.SET:
            return self._by_key.get(tup.key())  # every stored tuple is keyed
        return self._find_exact(tup)

    def delete(self, tup: Tuple) -> bool:
        target = self.find(tup)
        if target is None:
            return False
        for segment in reversed(self._segments):
            if segment.delete(target):
                break
        else:
            return False
        if self.policy is DuplicatePolicy.SET:
            self._by_key.pop(target.key(), None)
        if not target.is_ground():
            try:
                self._nonground.remove(target)
            except ValueError:
                pass
        self._count -= 1
        return True

    def _find_exact(self, tup: Tuple) -> Optional[Tuple]:
        for segment in self._segments:
            for candidate in segment.tuples.values():
                if candidate == tup:
                    return candidate
        return None

    # -- indexes ---------------------------------------------------------------

    def add_index(self, spec: IndexSpec) -> None:
        """Add an index, populating it over the existing contents.

        Section 3.2: indices "can be added to existing relations".
        An index equal to an existing one (same positions; same pattern and
        key variables up to renaming) is not added again.
        """
        if spec in self._specs:
            return
        self._specs.append(spec)
        self._rank_specs()
        for segment in self._segments:
            segment.add_index(spec)

    def _rank_specs(self) -> None:
        specs = self._specs
        self._probe_order = sorted(
            range(len(specs)), key=lambda position: -specs[position].width
        )

    @property
    def index_specs(self) -> Sequence[IndexSpec]:
        return tuple(self._specs)

    # -- scans -----------------------------------------------------------------

    def scan(
        self,
        pattern: Optional[Sequence[Arg]] = None,
        env: Optional[BindEnv] = None,
        since: int = 0,
        until: Optional[int] = None,
    ) -> TupleIterator:
        return GeneratorTupleIterator(
            self._generate(self._segments[since:until], pattern, env)
        )

    def _generate(
        self,
        segments: Sequence[_Segment],
        pattern: Optional[Sequence[Arg]],
        env: Optional[BindEnv],
    ) -> Iterator[Tuple]:
        probe_key = None
        spec_position = None
        if pattern is not None:
            # the usable index keyed on the most positions: the smallest
            # bucket a probe this bound can be served from
            specs = self._specs
            for position in self._probe_order:
                key = specs[position].key_for_probe(pattern, env)
                if key is not None:
                    probe_key = key
                    spec_position = position
                    break
        for segment in segments:
            if spec_position is not None:
                yield from segment.indexes[spec_position].lookup(probe_key)
            else:
                yield from list(segment.tuples.values())

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        """Discard all tuples and marks (used by save-module resets)."""
        self._segments = [_Segment(self._specs)]
        self._by_key.clear()
        self._nonground.clear()
        self._count = 0


class ListRelation(MarkedRelation):
    """A relation organised as a linked list (Section 7.2): no hashing, no
    indexes — every access is a linear scan.

    Kept both as the simplest possible reference implementation and as the
    baseline the indexing benchmarks measure against.  It numbers its
    insertions from the clock :class:`HashRelation` uses, keeping each
    tuple beside its number, and a mark is a number from that clock: ranged
    scans and watermarks read the one numbering.
    """

    def __init__(self, name: str, arity: int) -> None:
        super().__init__(name, arity)
        #: (insertion number, tuple), oldest first
        self._entries: List[PyTuple[int, Tuple]] = []

    def mark(self) -> int:
        return next(_next_seqno)

    def count_since(self, mark: int) -> int:
        return len(self.inserted_after(mark))  # no tuple is numbered mark

    def inserted_after(self, seqno: int) -> List[Tuple]:
        return [tup for number, tup in self._entries if number > seqno]

    def insert(self, tup: Tuple) -> bool:
        if len(tup.args) != self.arity:
            raise CoralError(
                f"arity mismatch inserting into {self.name}/{self.arity}: {tup}"
            )
        for _, existing in self._entries:
            if existing == tup:
                return False
        tup.seqno = next(_next_seqno)
        self._entries.append((tup.seqno, tup))
        return True

    def delete(self, tup: Tuple) -> bool:
        for position, (_, existing) in enumerate(self._entries):
            if existing == tup:
                del self._entries[position]
                return True
        return False

    def scan(
        self,
        pattern: Optional[Sequence[Arg]] = None,
        env: Optional[BindEnv] = None,
        since: int = 0,
        until: Optional[int] = None,
    ) -> TupleIterator:
        return GeneratorTupleIterator(iter([
            tup
            for number, tup in self._entries
            if number >= since and (until is None or number < until)
        ]))

    def __len__(self) -> int:
        return len(self._entries)
