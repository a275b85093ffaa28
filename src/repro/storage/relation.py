"""Persistent relations over the page-based storage manager.

Section 3.2: *"CORAL uses the EXODUS storage manager to support persistent
relations ... Currently, tuples in a persistent relation are restricted to
have fields of primitive types only."*  Section 2: *"a 'get-next-tuple'
request on a persistent relation results in a page-level I/O request by the
buffer manager"* and *"the data can be accessed purely out of pages in the
EXODUS buffer pool"* — scans here decode tuples straight out of buffered
pages; nothing is bulk-copied into in-memory CORAL structures.

A :class:`PersistentRelation` is a heap file of slotted pages plus any number
of B-tree indexes (one page file each).  Relation metadata (arity, declared
indexes) persists in a small JSON catalog next to the page files so a later
process can re-open the relation — the "multiple CORAL processes could
interact by accessing persistent data" story of Section 2.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from ..errors import StorageError
from ..terms import Arg, BindEnv, resolve
from ..relations.base import (
    GeneratorTupleIterator,
    Relation,
    Tuple,
    TupleIterator,
)
from .btree import BTree, Rid
from .buffer import BufferPool
from .pages import SlottedPage
from .serde import decode_tuple, encode_tuple


def _key(args: Sequence[Arg]) -> tuple:
    return tuple([arg.ground_key() for arg in args])


class PersistentRelation(Relation):
    """A relation stored in pages, accessed through the buffer pool."""

    def __init__(
        self,
        name: str,
        arity: int,
        pool: BufferPool,
        unique: bool = True,
    ) -> None:
        super().__init__(name, arity)
        self.pool = pool
        self.unique = unique
        self._heap_file = f"{name}.heap"
        #: argument-position tuples with a B-tree, e.g. [(0,), (0, 1)]
        self._index_positions: List[PyTuple[int, ...]] = []
        self._indexes: Dict[PyTuple[int, ...], BTree] = {}
        self._count = 0
        self._last_page_with_space: Optional[int] = None
        #: unique relations only: every stored tuple's key, under Arg
        #: equality, so a duplicate check decodes nothing
        self._keys: Optional[Set[tuple]] = None
        self._load_or_create_catalog()

    # -- catalog -----------------------------------------------------------

    @property
    def _catalog_path(self) -> str:
        return os.path.join(self.pool.server.directory, f"{self.name}.meta.json")

    def _load_or_create_catalog(self) -> None:
        if os.path.exists(self._catalog_path):
            try:
                with open(self._catalog_path) as handle:
                    catalog = json.load(handle)
            except OSError as exc:
                raise StorageError(
                    f"cannot read catalog {self._catalog_path}: {exc}"
                ) from exc
            except ValueError as exc:
                raise StorageError(
                    f"catalog {self._catalog_path} is corrupted: {exc}"
                ) from exc
            if catalog["arity"] != self.arity:
                raise StorageError(
                    f"catalog arity {catalog['arity']} != requested {self.arity} "
                    f"for persistent relation {self.name}"
                )
            self.unique = catalog["unique"]
            for positions in catalog["indexes"]:
                self._open_index(tuple(positions))
            self._keys = set() if self.unique else None
            for _rid, args in self._heap_records():
                self._count += 1
                if self._keys is not None:
                    self._keys.add(_key(args))
        else:
            self._save_catalog()
            self._keys = set() if self.unique else None

    def _save_catalog(self) -> None:
        try:
            with open(self._catalog_path, "w") as handle:
                json.dump(
                    {
                        "arity": self.arity,
                        "unique": self.unique,
                        "indexes": [list(p) for p in self._index_positions],
                    },
                    handle,
                )
        except OSError as exc:
            raise StorageError(
                f"cannot write catalog {self._catalog_path}: {exc}"
            ) from exc

    # -- indexes -----------------------------------------------------------

    def _index_file(self, positions: PyTuple[int, ...]) -> str:
        return f"{self.name}.idx_{'_'.join(str(p) for p in positions)}"

    def _open_index(self, positions: PyTuple[int, ...]) -> BTree:
        tree = BTree(self.pool, self._index_file(positions))
        if positions not in self._index_positions:
            self._index_positions.append(positions)
        self._indexes[positions] = tree
        return tree

    def create_index(self, positions: Sequence[int]) -> None:
        """Create a B-tree index on the given argument positions, populating
        it over existing tuples (indexes can be added later, Section 3.2)."""
        key = tuple(sorted(set(positions)))
        if any(p < 0 or p >= self.arity for p in key):
            raise StorageError(f"index positions {list(positions)} out of range")
        if key in self._indexes:
            return
        tree = self._open_index(key)
        for rid, args in self._heap_records():
            tree.insert([args[p] for p in key], rid)
        self._save_catalog()

    # -- heap access ----------------------------------------------------------

    def _heap_records(self) -> Iterator[PyTuple[Rid, List[Arg]]]:
        """Every live record: ((page, slot), decoded args).  One pinned page
        at a time — the scan runs out of the buffer pool."""
        num_pages = self.pool.server.num_pages(self._heap_file)
        for page_id in range(num_pages):
            page = self.pool.fetch_page(self._heap_file, page_id)
            try:
                slotted = SlottedPage(page)
                for slot, record in slotted.records():
                    yield (page_id, slot), decode_tuple(record)
            finally:
                self.pool.unpin(page)

    def _fetch_by_rid(self, rid: Rid) -> Optional[List[Arg]]:
        page = self.pool.fetch_page(self._heap_file, rid[0])
        try:
            record = SlottedPage(page).get_record(rid[1])
            return decode_tuple(record) if record is not None else None
        finally:
            self.pool.unpin(page)

    # -- Relation interface ------------------------------------------------------

    def insert(self, tup: Tuple) -> bool:
        if len(tup.args) != self.arity:
            raise StorageError(
                f"arity mismatch inserting into {self.name}/{self.arity}"
            )
        record = encode_tuple(tup.args)  # also validates primitive-only fields
        keys = self._keys
        if keys is not None:
            key = _key(tup.args)
            if key in keys:
                return False
        rid = self._append_record(record)
        for positions, tree in self._indexes.items():
            tree.insert([tup.args[p] for p in positions], rid)
        if keys is not None:
            keys.add(key)
        self._count += 1
        return True

    def _append_record(self, record: bytes) -> Rid:
        if self._last_page_with_space is not None:
            page = self.pool.fetch_page(self._heap_file, self._last_page_with_space)
            try:
                slot = SlottedPage(page).insert_record(record)
                if slot is not None:
                    self.pool.unpin(page, dirty=True)
                    return (page.page_id, slot)
            except Exception:
                self.pool.unpin(page)
                raise
            self.pool.unpin(page)
        page = self.pool.new_page(self._heap_file)
        try:
            slotted = SlottedPage.initialize(page)
            slot = slotted.insert_record(record)
            if slot is None:
                raise StorageError(
                    f"record of {len(record)} bytes does not fit in a page"
                )
            self._last_page_with_space = page.page_id
            return (page.page_id, slot)
        finally:
            self.pool.unpin(page, dirty=True)

    def delete(self, tup: Tuple) -> bool:
        for rid, stored in self._candidate_records(tup.args, None):
            if len(stored) == len(tup.args) and all(
                s == a for s, a in zip(stored, tup.args)
            ):
                page = self.pool.fetch_page(self._heap_file, rid[0])
                try:
                    SlottedPage(page).delete_record(rid[1])
                finally:
                    self.pool.unpin(page, dirty=True)
                for positions, tree in self._indexes.items():
                    tree.delete([stored[p] for p in positions], rid)
                if self._keys is not None:
                    self._keys.discard(_key(stored))
                self._count -= 1
                self._last_page_with_space = rid[0]
                return True
        return False

    def _best_index(
        self, bound: Sequence[bool]
    ) -> Optional[PyTuple[PyTuple[int, ...], BTree]]:
        """The widest index all of whose positions are bound by the probe."""
        best: Optional[PyTuple[PyTuple[int, ...], BTree]] = None
        for positions, tree in self._indexes.items():
            if all(bound[p] for p in positions):
                if best is None or len(positions) > len(best[0]):
                    best = (positions, tree)
        return best

    def _candidate_records(
        self, pattern: Optional[Sequence[Arg]], env: Optional[BindEnv]
    ) -> Iterator[PyTuple[Rid, List[Arg]]]:
        if pattern is not None:
            resolved = [resolve(term, env) for term in pattern]
            bound = [term.is_ground() for term in resolved]
            best = self._best_index(bound)
            if best is not None:
                positions, tree = best
                for rid in tree.search([resolved[p] for p in positions]):
                    stored = self._fetch_by_rid(rid)
                    if stored is not None:
                        yield rid, stored
                return
        yield from self._heap_records()

    def scan(
        self,
        pattern: Optional[Sequence[Arg]] = None,
        env: Optional[BindEnv] = None,
    ) -> TupleIterator:
        return GeneratorTupleIterator(
            Tuple(tuple(args))
            for _rid, args in self._candidate_records(pattern, env)
        )

    def scan_ordered(
        self,
        positions: Sequence[int],
        low: Optional[Sequence[Arg]] = None,
        high: Optional[Sequence[Arg]] = None,
    ) -> TupleIterator:
        """A B-tree range scan: tuples with ``low <= key <= high`` on the
        index over ``positions``, in key order (the indexed-scan facility
        of the storage manager, Section 2).  Bounds of None are open."""
        key = tuple(sorted(set(positions)))
        tree = self._indexes.get(key)
        if tree is None:
            raise StorageError(
                f"no B-tree on positions {list(positions)} of {self.name} "
                f"(create_index first)"
            )

        def generate():
            for _key, rid in tree.range_scan(low, high):
                stored = self._fetch_by_rid(rid)
                if stored is not None:
                    yield Tuple(tuple(stored))

        return GeneratorTupleIterator(generate())

    def __len__(self) -> int:
        return self._count
