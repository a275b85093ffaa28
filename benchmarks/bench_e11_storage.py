"""E11 — Sections 2, 3.2: persistent relations and the buffer pool.

Paper claims: *"a 'get-next-tuple' request on a persistent relation results
in a page-level I/O request by the buffer manager"*; data *"is paged into
EXODUS buffers on demand"* and *"can be accessed purely out of pages in the
EXODUS buffer pool"* without bulk-loading into memory structures.

Measured:

* buffer-capacity sweep on repeated scans: hit rate climbs from ~0 (pool
  smaller than the relation) to ~1 (relation fits), server page reads fall
  accordingly;
* B-tree point lookups touch a handful of pages regardless of heap size;
  heap scans touch them all;
* declarative rules evaluate directly over a persistent relation.
"""

import pytest

from repro import Session
from repro.relations import Tuple
from repro.storage import BufferPool, PersistentRelation, StorageServer
from repro.terms import Int, Var
from workloads import report, timed

ROWS = 3000


def _build(tmp_path, capacity):
    server = StorageServer(str(tmp_path))
    pool = BufferPool(server, capacity=capacity)
    relation = PersistentRelation("data", 2, pool)
    relation.create_index([0])
    for i in range(ROWS):
        relation.insert(Tuple((Int(i), Int(i * i % 9973))))
    pool.flush_all()
    return server, pool, relation


class TestE11Storage:
    def test_hit_rate_vs_buffer_capacity(self, tmp_path):
        heap_pages = None
        rows = []
        for capacity in (4, 16, 64, 256):
            directory = tmp_path / f"cap{capacity}"
            server, pool, relation = _build(directory, capacity)
            heap_pages = server.num_pages("data.heap")
            pool.drop_all()
            pool.stats.reset()
            server.stats.reset()
            for _ in range(3):  # repeated full scans
                assert sum(1 for _ in relation.scan()) == ROWS
            rows.append(
                (
                    capacity,
                    heap_pages,
                    f"{pool.stats.hit_rate:.0%}",
                    server.stats.page_reads,
                )
            )
            server.close()
        report(
            f"E11: 3 full scans of a {ROWS}-row persistent relation "
            f"({heap_pages} heap pages)",
            ["buffer frames", "heap pages", "hit rate", "server page reads"],
            rows,
        )
        # once the relation fits in the pool, rescans are free
        assert rows[-1][3] <= heap_pages + 2
        # a pool smaller than the relation pays per scan
        assert rows[0][3] >= 2 * heap_pages

    def test_indexed_lookup_page_costs(self, tmp_path):
        server, pool, relation = _build(tmp_path / "idx", 8)
        pool.drop_all()
        server.stats.reset()
        hits = list(relation.scan([Int(1234), Var("Y")], None))
        indexed_reads = server.stats.page_reads
        assert len(hits) == 1

        pool.drop_all()
        server.stats.reset()
        hits = [t for t in relation.scan() if t[0] == Int(1234)]
        scan_reads = server.stats.page_reads
        report(
            "E11: pages read for one point lookup",
            ["access path", "server page reads"],
            [("B-tree index", indexed_reads), ("heap scan", scan_reads)],
        )
        assert indexed_reads < scan_reads / 3
        server.close()

    def test_rules_over_persistent_relation(self, tmp_path):
        session = Session(data_directory=str(tmp_path / "rules"))
        relation = session.persistent_relation("edge", 2)
        for i in range(60):
            relation.insert_values(i, i + 1)
        session.consult_string(
            """
            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        assert len(session.query("path(30, Y)").all()) == 30
        session.close()

    def test_profiled_indexed_query(self, tmp_path):
        """A profiled query over an indexed persistent relation, read from
        a cold pool: its answers and the profile's storage counters."""
        rows = 500
        session = Session(data_directory=str(tmp_path / "profiled"), buffer_capacity=16)
        relation = session.persistent_relation("edge", 2)
        relation.create_index([0])
        for i in range(rows):
            relation.insert_values(i, i + 1)
        session.consult_string(
            """
            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        session.storage_pool.drop_all()
        with timed() as t, session.profile(trace=False) as prof:
            answers = len(session.query("path(450, Y)").all())
        session.close()
        profile = prof.profile
        report(
            f"E11: path(450, Y) over {rows} persistent edges, cold pool",
            ["counter", "value"],
            [("answers", answers), ("ms", round(t.seconds * 1e3, 2)),
             ("buffer hit rate", round(profile.buffer_hit_rate, 3)),
             *((f"{layer}.{name}", value)
               for layer, counts in sorted(profile.storage.items())
               for name, value in counts.items())],
        )
        assert answers == rows - 451 + 1

    def test_scan_speed_warm(self, tmp_path, benchmark):
        server, pool, relation = _build(tmp_path / "warm", 256)

        def scan():
            return sum(1 for _ in relation.scan())

        benchmark.pedantic(scan, rounds=3, iterations=1)
        server.close()

    def test_scan_speed_cold(self, tmp_path, benchmark):
        server, pool, relation = _build(tmp_path / "cold", 4)

        def scan():
            pool.drop_all()
            return sum(1 for _ in relation.scan())

        benchmark.pedantic(scan, rounds=3, iterations=1)
        server.close()
