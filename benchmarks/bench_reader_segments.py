"""Readers of a base relation leave its segments alone (§3.2).

Paper claim: a relation is split into "subsidiary relations, one
corresponding to each interval between marks", so that semi-naive
evaluation can scan its deltas with indexes.  Marks belong to the
evaluation that owns the relation.  A reader of a base relation — push's
resident copy, a memo entry, live views, ``@save_module.`` resumption —
remembers what it has seen by insertion number instead
(``repro.relations.Watermark``), so append-only traffic with reads in
between keeps the base in one segment.

Workload: a 7-edge chain ``1 -> ... -> 8``, then 2,000 cycles of "insert
one edge, read ``path(1, Y)``" (every tenth edge leaves node 6, so the
answer grows; the rest extend a chain nothing reads).  Then the p50 of 500
direct, indexed ``edge(7, Y)`` probes, whose cost grows with the number of
segments it walks.  Every session's final answers must equal a cold
interpreted session's, and every probe must cost within 2x of the default
session's.

Second workload: ``@save_module.`` resumption after a bulk insert.  A
50-edge chain is read once through ``path(0, Y)``, then 5,000 or 20,000
edges nothing reads arrive, plus one that extends the chain, and
``path(0, Y)`` is read again.  Each resumption version's seed keeps its
written place after the magic literal, so it is probed once per magic
fact.  Through the relation's own index, kept to the arrivals, the read
must cost less than the inserts it absorbs; walking the arrivals list per
probe costs magic facts x arrivals, several times the inserts.
"""

import statistics
import time

from repro import Session

from workloads import report

TC = """
module tc.
export path(bf).
{flags}
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""
CHAIN = "".join(f"edge({i}, {i + 1}).\n" for i in range(1, 8))
CYCLES = 2_000
PROBES = 500


def _readers():
    """(label, session) per reader of ``edge``."""
    plain = TC.format(flags="")
    memo = Session(memo=True)
    memo.consult_string(CHAIN + plain)
    live = Session()
    live.consult_string(CHAIN + plain)
    live.subscribe("path(1, Y)", lambda deltas: None)
    live.subscribe("edge(X, Y)", lambda deltas: None)
    saved = Session(compiled=None)
    saved.consult_string(CHAIN + TC.format(flags="@save_module."))
    default = Session()
    default.consult_string(CHAIN + plain)
    return [
        ("Session() (push)", default),
        ("Session(memo=True)", memo),
        ("live views (derived + base)", live),
        ("@save_module. (compiled=None)", saved),
    ]


def _cycle(session):
    for step in range(CYCLES):
        if step % 10 == 0:
            session.insert("edge", 6, 20_000 + step)
        else:
            session.insert("edge", 10_000 + step, 10_001 + step)
        session.query("path(1, Y)").all()


def _probe_us(session):
    samples = []
    for _ in range(PROBES):
        started = time.perf_counter()
        session.query("edge(7, Y)").all()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


def _answers(session):
    return sorted(answer["Y"] for answer in session.query("path(1, Y)"))


def _cold(relation):
    """An interpreted session over a copy of ``relation``'s edges."""
    edges = (tuple(arg.value for arg in t.args) for t in relation.scan())
    cold = Session(compiled=None)
    cold.consult_string(
        "".join(f"edge({a}, {b}).\n" for a, b in edges) + TC.format(flags="")
    )
    return cold


class TestReaderSegments:
    def test_append_only_reads_keep_one_segment(self):
        readers = _readers()
        rows, probes = [], {}
        for label, session in readers:
            _cycle(session)
            relation = session.relation("edge", 2)
            assert _answers(session) == _answers(_cold(relation)), label
            probes[label] = _probe_us(session)
            rows.append(
                (label, relation.segment_count(), f"{probes[label]:.0f}")
            )
        report(
            f"readers without marks: {CYCLES} insert+read cycles, "
            "then edge(7, Y)",
            ["session", "edge segments", "probe p50 (us)"],
            rows,
        )
        default = probes[readers[0][0]]
        for label, session in readers:
            assert session.relation("edge", 2).segment_count() == 1, label
            assert probes[label] <= 2 * default, (label, probes)


def _resumed_read(bulk):
    """(insert ms, second read ms): ``bulk`` unread edges arriving between
    two calls of a saved module, and the read that absorbs them."""
    session = Session(compiled=None)
    session.consult_string(
        "".join(f"edge({i}, {i + 1}).\n" for i in range(50))
        + TC.format(flags="@save_module.")
    )
    session.query("path(0, Y)").all()
    started = time.perf_counter()
    for step in range(bulk):
        session.insert("edge", 100_000 + step, 100_001 + step)
    session.insert("edge", 50, 51)
    inserted = time.perf_counter()
    answers = sorted(answer["Y"] for answer in session.query("path(0, Y)"))
    read = time.perf_counter()
    assert answers == list(range(1, 52))
    return (inserted - started) * 1e3, (read - inserted) * 1e3


class TestResumptionAfterBulkInsert:
    def test_absorbing_arrivals_costs_less_than_inserting_them(self):
        rows = []
        for bulk in (5_000, 20_000):
            insert_ms, read_ms = min(
                (_resumed_read(bulk) for _ in range(3)), key=lambda run: run[1]
            )
            rows.append((bulk, f"{insert_ms:.0f}", f"{read_ms:.1f}"))
            assert read_ms <= insert_ms, (bulk, insert_ms, read_ms)
        report(
            "@save_module. read after a bulk insert (compiled=None)",
            ["edges arrived", "inserts (ms)", "second read (ms, best of 3)"],
            rows,
        )
