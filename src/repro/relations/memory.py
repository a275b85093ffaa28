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
segment and opens a new one; a ranged scan unions the segments between two
marks.  Every index spec is realised once per segment, so delta scans are
indexed for free.

Marks are *ids*, not list positions: monotone ints with ``0`` meaning "from
the start".  Each segment remembers the mark at which it opened and a
ranged scan resolves ``since``/``until`` against those, so a segment
emptied by deletes can be dropped without disturbing any mark a consumer
still holds — a long-lived relation whose tuples come and go (a base
relation under a live view) keeps a bounded number of segments, and scan
cost does not grow with the number of commits it has seen.  Until a segment
has been dropped, ids and positions coincide and scans slice the list
directly.

Duplicate semantics (Section 4.2): the default policy performs subsumption
checks — a new fact is discarded when an equal fact (ground) or a variant or
more general fact (non-ground, Section 3.1) is already stored.  A relation
may instead be declared a *multiset*, keeping one copy per derivation; the
optimizer then restricts duplicate checks to the magic predicates.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Sequence

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
        inserted earlier (Section 3.2).  Returns a mark id usable as the
        ``since``/``until`` of a ranged scan: ids only ever grow, and ``0``
        means "from the start"."""
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
        """The stored tuples inserted after the one numbered ``seqno``
        (``Tuple.seqno``; ``0`` means all of them), oldest first.  A reader
        that only needs what arrived since it last looked uses this instead
        of a mark, which would close a segment every time it looked."""
        raise NotImplementedError


class HashRelation(MarkedRelation):
    """The workhorse in-memory relation: hashed duplicate detection,
    argument- and pattern-form indexes, marks via subsidiary segments."""

    def __init__(
        self,
        name: str,
        arity: int,
        policy: DuplicatePolicy = DuplicatePolicy.SET,
        index_specs: Sequence[IndexSpec] = (),
    ) -> None:
        super().__init__(name, arity)
        self.policy = policy
        self._specs: List[IndexSpec] = list(index_specs)
        #: positions into ``_specs``, widest key first (ties: registration
        #: order) — the order in which a probe tries them
        self._probe_order: List[int] = []
        self._rank_specs()
        #: subsidiary relations in mark order; the last one is open
        self._segments: List[_Segment] = [_Segment(self._specs)]
        #: parallel to ``_segments``: the mark each one opened at — it holds
        #: the tuples inserted at or after that mark and before the next
        self._opened: List[int] = [0]
        #: no segment dropped yet, so mark ids are still list positions
        self._dense = True
        #: duplicate-detection key -> representative tuple (SET policy)
        self._by_key: Dict[Any, Tuple] = {}
        #: stored non-ground tuples, for subsumption checks of new facts
        self._nonground: List[Tuple] = []
        self._count = 0
        #: statistics: how many insert attempts were rejected as duplicates
        self.duplicates_rejected = 0

    # -- marks ---------------------------------------------------------------

    def mark(self) -> int:
        opened = self._opened[-1]
        if len(self._segments[-1]):
            opened += 1
            self._segments.append(_Segment(self._specs))
            self._opened.append(opened)
        return opened

    def _window(self, since: int, until: Optional[int]) -> List[_Segment]:
        """The segments holding marks ``since <= m < until`` (a copy, so a
        scan is not disturbed by marks taken while it is open)."""
        if not self._dense:
            if since:
                since = bisect_left(self._opened, since)
            if until is not None:
                until = bisect_left(self._opened, until)
        return self._segments[since:until]

    def count_since(self, mark: int) -> int:
        return sum(len(segment) for segment in self._window(mark, None))

    def segment_count(self) -> int:
        """How many subsidiary relations a full scan walks."""
        return len(self._segments)

    def inserted_after(self, seqno: int) -> List[Tuple]:
        # seqnos grow with every insert and only the last segment takes
        # inserts, so the newest tuples are at the end: walk back to seqno
        arrived: List[Tuple] = []
        for segment in reversed(self._segments):
            tuples = segment.tuples
            for number in reversed(tuples):
                if number <= seqno:
                    arrived.reverse()
                    return arrived
                arrived.append(tuples[number])
        arrived.reverse()
        return arrived

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
        segments = self._segments
        for position in range(len(segments) - 1, -1, -1):
            segment = segments[position]
            if segment.delete(target):
                if not len(segment) and position < len(segments) - 1:
                    # emptied and closed: nothing can land in it again, and
                    # no mark names it by position — drop it
                    del segments[position]
                    del self._opened[position]
                    self._dense = False
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
            self._generate(self._window(since, until), pattern, env)
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
        self._opened = [0]
        self._dense = True
        self._by_key.clear()
        self._nonground.clear()
        self._count = 0


class ListRelation(MarkedRelation):
    """A relation organised as a linked list (Section 7.2): no hashing, no
    indexes — every access is a linear scan.

    Kept both as the simplest possible reference implementation (tests
    compare HashRelation behaviour against it) and as the baseline the
    indexing benchmarks measure against.
    """

    def __init__(self, name: str, arity: int) -> None:
        super().__init__(name, arity)
        self._tuples: List[Tuple] = []
        self._boundaries: List[int] = []

    def mark(self) -> int:
        self._boundaries.append(len(self._tuples))
        return len(self._boundaries)

    def count_since(self, mark: int) -> int:
        start = 0 if mark == 0 else self._boundaries[mark - 1]
        return len(self._tuples) - start

    def inserted_after(self, seqno: int) -> List[Tuple]:
        start = len(self._tuples)
        while start and self._tuples[start - 1].seqno > seqno:
            start -= 1
        return self._tuples[start:]

    def insert(self, tup: Tuple) -> bool:
        if len(tup.args) != self.arity:
            raise CoralError(
                f"arity mismatch inserting into {self.name}/{self.arity}: {tup}"
            )
        for existing in self._tuples:
            if existing == tup:
                return False
        tup.seqno = next(_next_seqno)
        self._tuples.append(tup)
        return True

    def delete(self, tup: Tuple) -> bool:
        for position, existing in enumerate(self._tuples):
            if existing == tup:
                del self._tuples[position]
                self._boundaries = [
                    b if b <= position else b - 1 for b in self._boundaries
                ]
                return True
        return False

    def scan(
        self,
        pattern: Optional[Sequence[Arg]] = None,
        env: Optional[BindEnv] = None,
        since: int = 0,
        until: Optional[int] = None,
    ) -> TupleIterator:
        start = 0 if since == 0 else self._boundaries[since - 1]
        end = len(self._tuples) if until is None else (
            len(self._tuples) if until > len(self._boundaries) else self._boundaries[until - 1]
        )
        return GeneratorTupleIterator(iter(list(self._tuples[start:end])))

    def __len__(self) -> int:
        return len(self._tuples)
