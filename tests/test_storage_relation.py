"""Unit tests for persistent relations (paper Sections 2, 3.2)."""

import pytest

from repro.errors import StorageError
from repro.relations import Tuple
from repro.storage import BufferPool, PersistentRelation, StorageServer
from repro.terms import Atom, Functor, Int, Str, Var


@pytest.fixture
def pool(tmp_path):
    server = StorageServer(str(tmp_path))
    pool = BufferPool(server, capacity=32)
    yield pool
    pool.flush_all()
    server.close()


def t(*values):
    return Tuple(tuple(Int(v) if isinstance(v, int) else Atom(v) for v in values))


class TestPersistentRelation:
    def test_insert_and_scan(self, pool):
        rel = PersistentRelation("edge", 2, pool)
        rel.insert(t(1, 2))
        rel.insert(t(2, 3))
        assert len(rel) == 2
        assert {(x[0].value, x[1].value) for x in rel.scan()} == {(1, 2), (2, 3)}

    def test_duplicate_rejected_when_unique(self, pool):
        rel = PersistentRelation("edge", 2, pool)
        assert rel.insert(t(1, 2))
        assert not rel.insert(t(1, 2))
        assert len(rel) == 1

    def test_multiset_when_not_unique(self, pool):
        rel = PersistentRelation("multi", 2, pool, unique=False)
        rel.insert(t(1, 2))
        rel.insert(t(1, 2))
        assert len(rel) == 2

    def test_functor_field_rejected(self, pool):
        """Paper restriction: primitive-typed fields only."""
        rel = PersistentRelation("bad", 1, pool)
        with pytest.raises(StorageError):
            rel.insert(Tuple((Functor("f", (Int(1),)),)))

    def test_many_tuples_span_pages(self, pool):
        rel = PersistentRelation("big", 2, pool)
        for i in range(2000):
            rel.insert(t(i, i + 1))
        assert len(rel) == 2000
        assert pool.server.num_pages("big.heap") > 1
        assert sum(1 for _ in rel.scan()) == 2000

    def test_bulk_load_decodes_no_record(self, pool, monkeypatch):
        """A unique insert checks a set of the stored tuples' keys: a
        2,000-tuple load decodes nothing (it decoded the whole heap per
        insert, quadratic in the load), a reopen decodes each record once,
        and a delete frees its key for a later insert."""
        from repro.storage import relation as module

        decoded = []
        honest = module.decode_tuple

        def counting(record):
            decoded.append(record)
            return honest(record)

        monkeypatch.setattr(module, "decode_tuple", counting)
        rel = PersistentRelation("bulk", 2, pool)
        for i in range(2000):
            assert rel.insert(t(i, i + 1))
        assert not rel.insert(t(1999, 2000))
        assert decoded == []
        assert len(PersistentRelation("bulk", 2, pool)) == 2000
        assert len(decoded) == 2000
        assert rel.delete(t(7, 8))
        assert not rel.insert(t(8, 9)) and rel.insert(t(7, 8))
        assert len(rel) == 2000

    def test_indexed_probe_uses_btree(self, pool):
        rel = PersistentRelation("edge", 2, pool)
        rel.create_index([0])
        for i in range(500):
            rel.insert(t(i % 50, i))
        pool.server.stats.reset()
        hits = list(rel.scan([Int(7), Var("Y")], None))
        assert len(hits) == 10
        assert all(tup[0].value == 7 for tup in hits)

    def test_index_created_after_data_covers_existing(self, pool):
        rel = PersistentRelation("edge", 2, pool)
        for i in range(100):
            rel.insert(t(i, i + 1))
        rel.create_index([0])
        hits = list(rel.scan([Int(42), Var("Y")], None))
        assert len(hits) == 1

    def test_delete_updates_heap_and_indexes(self, pool):
        rel = PersistentRelation("edge", 2, pool)
        rel.create_index([0])
        rel.insert(t(1, 2))
        rel.insert(t(1, 3))
        assert rel.delete(t(1, 2))
        assert len(rel) == 1
        hits = list(rel.scan([Int(1), Var("Y")], None))
        assert [h[1].value for h in hits] == [3]

    def test_unbound_probe_falls_back_to_heap_scan(self, pool):
        rel = PersistentRelation("edge", 2, pool)
        rel.create_index([0])
        rel.insert(t(1, 2))
        hits = list(rel.scan([Var("X"), Int(2)], None))
        assert len(hits) == 1

    def test_strings_and_atoms(self, pool):
        rel = PersistentRelation("people", 2, pool)
        rel.insert(Tuple((Atom("john"), Str("123 Main St"))))
        hits = list(rel.scan([Atom("john"), Var("A")], None))
        assert hits[0][1] == Str("123 Main St")

    def test_persists_across_reopen(self, tmp_path):
        server = StorageServer(str(tmp_path))
        pool = BufferPool(server, capacity=16)
        rel = PersistentRelation("edge", 2, pool)
        rel.create_index([0])
        for i in range(100):
            rel.insert(t(i, i + 1))
        pool.flush_all()
        server.close()

        server2 = StorageServer(str(tmp_path))
        pool2 = BufferPool(server2, capacity=16)
        rel2 = PersistentRelation("edge", 2, pool2)
        assert len(rel2) == 100
        hits = list(rel2.scan([Int(5), Var("Y")], None))
        assert [h[1].value for h in hits] == [6]
        server2.close()

    def test_reopen_with_wrong_arity_rejected(self, tmp_path):
        server = StorageServer(str(tmp_path))
        pool = BufferPool(server, capacity=8)
        PersistentRelation("edge", 2, pool)
        with pytest.raises(StorageError):
            PersistentRelation("edge", 3, pool)
        server.close()

    def test_get_next_tuple_drives_page_io(self, pool):
        """Paper Section 2: a get-next-tuple request on a persistent relation
        becomes a page-level I/O request when the page is not buffered."""
        rel = PersistentRelation("edge", 2, pool)
        for i in range(2000):
            rel.insert(t(i, i + 1))
        pool.flush_all()
        pool.drop_all()
        pool.stats.reset()
        cursor = rel.scan()
        first = cursor.get_next()
        assert first is not None
        assert pool.stats.misses >= 1  # the first fetch faulted a page in
        misses_after_first = pool.stats.misses
        for _ in range(10):  # next few tuples come from the same page
            cursor.get_next()
        assert pool.stats.misses == misses_after_first
