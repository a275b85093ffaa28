"""Hash-based index structures for in-memory relations.

Section 3.3: *"CORAL allows for the specification of two types of hash-based
indices: (1) argument form indices, and (2) pattern form indices.  The first
form is the traditional multi-attribute hash index on a subset of the
arguments of a relation.  The hash function chosen works well on ground
terms; however, all terms that contain a variable are hashed to a special
value, denoted as var.  The second form is more sophisticated, and allows us
to retrieve precisely those facts that match a specified pattern, where the
pattern can contain variables."*

An index is described by an :class:`IndexSpec` (what to key on) and realised
as an :class:`Index` instance attached to each subsidiary segment of a marked
relation (Section 3.2 notes the marks machinery "does not interfere with the
indexing mechanisms ... the indexing mechanisms are used on each subsidiary
relation").

Indexes are *access paths*: a probe either yields a hash key (serve the
lookup from ``bucket[key] + var-bucket``) or is unusable (the relation falls
back to a heap scan).  Indexed lookups may over-approximate — the caller
always re-unifies — but must never miss a tuple that could unify with the
probe; tuples whose indexed positions contain variables therefore live in the
always-scanned *var* bucket, exactly the paper's special ``var`` hash value.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..errors import CoralError
from ..terms import Arg, BindEnv, Trail, Var, canonicalize_term, match, resolve
from .base import Tuple

#: Sentinel key for the var bucket.
VAR_BUCKET = "<var>"


class IndexSpec(ABC):
    """Describes one index on a relation: how tuples and probes map to keys."""

    @abstractmethod
    def key_for_tuple(self, tup: Tuple) -> Any:
        """The hash key under which ``tup`` is filed, or :data:`VAR_BUCKET`
        when the indexed parts are not ground, or ``None`` when the tuple can
        never unify with any probe this index serves (pattern indices only —
        such tuples are filed in no bucket)."""

    @abstractmethod
    def key_for_probe(
        self, pattern: Sequence[Arg], env: Optional[BindEnv]
    ) -> Optional[Any]:
        """The hash key a probe selects, or ``None`` when the probe does not
        bind the indexed parts (index unusable; caller scans the heap)."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable form for `explain` output and error messages."""

    @property
    def width(self) -> int:
        """How many values make up a key: among the indexes a probe can use,
        the widest selects the smallest bucket."""
        return 1

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class ArgumentIndexSpec(IndexSpec):
    """Multi-attribute hash index on a subset of argument positions."""

    def __init__(self, arity: int, positions: Sequence[int]) -> None:
        if not positions:
            raise CoralError("argument index needs at least one position")
        if any(p < 0 or p >= arity for p in positions):
            raise CoralError(
                f"index positions {list(positions)} out of range for arity {arity}"
            )
        self.arity = arity
        self.positions = tuple(sorted(set(positions)))

    def key_for_tuple(self, tup: Tuple) -> Any:
        parts = []
        for position in self.positions:
            arg = tup.args[position]
            if not arg.is_ground():
                return VAR_BUCKET
            parts.append(arg.ground_key())
        return tuple(parts)

    def key_for_probe(
        self, pattern: Sequence[Arg], env: Optional[BindEnv]
    ) -> Optional[Any]:
        parts = []
        for position in self.positions:
            arg = resolve(pattern[position], env)
            if not arg.is_ground():
                return None
            parts.append(arg.ground_key())
        return tuple(parts)

    def describe(self) -> str:
        return "args(" + ",".join(str(p + 1) for p in self.positions) + ")"

    @property
    def width(self) -> int:
        return len(self.positions)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArgumentIndexSpec)
            and other.arity == self.arity
            and other.positions == self.positions
        )

    def __hash__(self) -> int:
        return hash(("argidx", self.arity, self.positions))


class PatternIndexSpec(IndexSpec):
    """Index on a pattern with variables (Section 3.3, Section 5.5.1).

    Example from the paper::

        @make_index emp(Name, addr(Street, City)) (Name, City).

    files each ``emp`` tuple under the values its ``Name`` and ``City``
    subterms take when the tuple is matched against the pattern, so the
    lookup *"employees named John living in Madison"* is a single bucket
    probe even though ``City`` is nested inside a functor term.
    """

    def __init__(self, pattern: Sequence[Arg], key_vars: Sequence[Var]) -> None:
        if not key_vars:
            raise CoralError("pattern index needs at least one key variable")
        self.pattern = tuple(pattern)
        self.key_vars = tuple(key_vars)
        pattern_vids = {
            var.vid for term in self.pattern for var in term.variables()
        }
        for var in self.key_vars:
            if var.vid not in pattern_vids:
                raise CoralError(
                    f"key variable {var} does not occur in the index pattern"
                )

    def _shape(self):
        """The spec up to variable renaming: the pattern with its variables
        numbered by first occurrence, and the key variables as numbered."""
        mapping: Dict[int, Var] = {}
        pattern = tuple(canonicalize_term(term, mapping) for term in self.pattern)
        return pattern, tuple(mapping[var.vid] for var in self.key_vars)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PatternIndexSpec) and other._shape() == self._shape()

    def __hash__(self) -> int:
        return hash(("patidx", self._shape()))

    def _extract(self, instance: Sequence[Arg], instance_env: Optional[BindEnv]):
        """Match the index pattern against ``instance``; return the key-var
        bindings as standalone terms, or None when the match fails."""
        env = BindEnv()
        trail = Trail()
        try:
            for pat, inst in zip(self.pattern, instance):
                if not match(pat, env, inst, instance_env, trail):
                    return None
            return [resolve(var, env) for var in self.key_vars]
        finally:
            trail.undo_to(0)

    def key_for_tuple(self, tup: Tuple) -> Any:
        values = self._extract(tup.args, None)
        if values is None:
            if tup.is_ground():
                # A *ground* tuple whose structure conflicts with the
                # pattern can never unify with a probe that produced an
                # index key (any such probe carries at least the pattern's
                # structure), so it is filed in no bucket — the index
                # retrieves "precisely those facts that match" (§3.3).
                return None
            # A tuple with variables at pattern positions could still unify
            # with pattern-shaped probes: the var bucket keeps it visible.
            return VAR_BUCKET
        parts = []
        for value in values:
            if not value.is_ground():
                return VAR_BUCKET
            parts.append(value.ground_key())
        return tuple(parts)

    def key_for_probe(
        self, pattern: Sequence[Arg], env: Optional[BindEnv]
    ) -> Optional[Any]:
        values = self._extract(pattern, env)
        if values is None:
            return None
        parts = []
        for value in values:
            if not value.is_ground():
                return None
            parts.append(value.ground_key())
        return tuple(parts)

    def describe(self) -> str:
        pattern = ", ".join(str(term) for term in self.pattern)
        keys = ", ".join(str(var) for var in self.key_vars)
        return f"pattern({pattern})({keys})"

    @property
    def width(self) -> int:
        return len(self.key_vars)


class Index:
    """One realised hash index: buckets of tuples in insertion order."""

    __slots__ = ("spec", "_buckets")

    def __init__(self, spec: IndexSpec) -> None:
        self.spec = spec
        self._buckets: Dict[Any, List[Tuple]] = {}

    def insert(self, tup: Tuple) -> None:
        key = self.spec.key_for_tuple(tup)
        if key is None:
            return
        self._buckets.setdefault(key, []).append(tup)

    def delete(self, tup: Tuple) -> None:
        key = self.spec.key_for_tuple(tup)
        if key is None:
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        try:
            bucket.remove(tup)
        except ValueError:
            pass

    def lookup(self, key: Any) -> Iterator[Tuple]:
        """Candidates for a probe that hashed to ``key``: the keyed bucket
        plus the var bucket (non-ground tuples match anything shape-wise)."""
        bucket = self._buckets.get(key)
        if bucket:
            yield from bucket
        if key != VAR_BUCKET:
            var_bucket = self._buckets.get(VAR_BUCKET)
            if var_bucket:
                yield from var_bucket

    def bucket_count(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:
        return f"<Index {self.spec.describe()} buckets={len(self._buckets)}>"
