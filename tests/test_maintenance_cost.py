"""What a repair costs, in counts (never timings): the delta-proportional
property of :mod:`repro.eval.maintenance`.

Absorbing one changed edge must cost in proportion to what the change
touches — not to the size of the materialization, and not to how many
commits the session has already seen."""

import pytest

from repro import Session
from repro.relations import HashRelation
from repro.relations.index import Index

TC = """
module tc.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

LAYERS, WIDTH = 6, 8


def layered_dag(layers=LAYERS, width=WIDTH, base=0):
    """Node ``(g, i)`` points straight down and ``2 ** (g % log2 width)``
    columns across (the perf ledger's ``live_update`` shape); ids start at
    ``base``."""
    bits = width.bit_length() - 1
    edges = []
    for gap in range(layers - 1):
        skew = 1 << (gap % bits)
        for i in range(width):
            for j in (i, (i + skew) % width):
                edges.append(
                    (base + gap * width + i, base + (gap + 1) * width + j)
                )
    return edges


#: a middle-gap edge, below the views' source (node 0, layer 0); the DAG
#: gives its head a second in-edge, so deleting it over-deletes facts that
#: the re-derive pass must bring back
TOGGLED = (3 * WIDTH + 2, 4 * WIDTH + 2)


def reach(edges, source):
    successors = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    seen, frontier = set(), [source]
    while frontier:
        for node in successors.get(frontier.pop(), ()):
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return seen


def facts(edges):
    return "".join(f"edge({a}, {b}).\n" for a, b in edges)


@pytest.fixture
def counts(monkeypatch):
    """Calls to ``HashRelation.scan`` (joins probing) and ``Index.lookup``
    (one per segment an indexed scan walks), while counting is on."""
    seen = {"scan": 0, "lookup": 0}
    scan, lookup = HashRelation.scan, Index.lookup

    def counted_scan(self, *args, **kwargs):
        seen["scan"] += 1
        return scan(self, *args, **kwargs)

    def counted_lookup(self, key):
        seen["lookup"] += 1
        return lookup(self, key)

    monkeypatch.setattr(HashRelation, "scan", counted_scan)
    monkeypatch.setattr(Index, "lookup", counted_lookup)
    return seen


def _cost(seen, op):
    before = dict(seen)
    op()
    return {name: seen[name] - before[name] for name in seen}


def _toggle_costs(seen, extra_edges=()):
    """(insert cost, delete cost, answers) of toggling ``TOGGLED`` under
    one live view of ``path(0, Y)``, after a warm-up toggle."""
    session = Session()
    edges = layered_dag() + list(extra_edges)
    session.consult_string(facts(edges) + TC)
    answers = set()

    def sink(deltas):
        for sign, tup in deltas:
            (answers.add if sign > 0 else answers.discard)(tup.args[1].value)

    view = session.subscribe("path(0, Y)", sink)
    answers.update(tup.args[1].value for tup in view.snapshot())
    session.delete("edge", *TOGGLED)  # the first repair builds the joins
    session.insert("edge", *TOGGLED)
    deleted = _cost(seen, lambda: session.delete("edge", *TOGGLED))
    inserted = _cost(seen, lambda: session.insert("edge", *TOGGLED))
    stats = session.live.snapshot()
    assert stats["rebuilds"] == 0 and stats["refreshes"] == 4
    assert answers == reach(edges, 0)
    return inserted, deleted, len(answers)


def test_one_edge_costs_a_few_scans_whatever_else_the_view_reaches(counts):
    inserted, deleted, answers = _toggle_costs(counts)
    assert inserted["scan"] <= 30  # 205-255 before the delta joins
    assert deleted["scan"] <= 120  # ~215 before

    # the same view also reaching a disjoint component four times the size
    # of the DAG: the repair touches none of it, so it costs exactly the same
    big = layered_dag(layers=2 * LAYERS, width=2 * WIDTH, base=1000)
    inserted_big, deleted_big, answers_big = _toggle_costs(
        counts, extra_edges=[(0, 1000)] + big
    )
    assert answers_big > 4 * answers
    # (scans, not index lookups: a deeper graph's initial fixpoint leaves
    # its local relations in more segments, and a scan walks each)
    assert inserted_big["scan"] == inserted["scan"]
    assert deleted_big["scan"] == deleted["scan"]


def test_toggle_400_costs_what_toggle_10_did(counts):
    session = Session(memo=True)
    session.consult_string(facts(layered_dag()) + TC)
    view = session.subscribe("path(0, Y)", lambda deltas: None)
    session.query("path(0, Y)").all()  # the one memo miss
    expected = {False: None, True: None}  # edge present? -> answers

    def toggle(n):
        present = n % 2 == 0  # toggle 1 deletes, toggle 2 re-inserts, ...
        (session.insert if present else session.delete)("edge", *TOGGLED)
        got = sorted(a["Y"] for a in session.query("path(0, Y)").all())
        if expected[present] is None:
            expected[present] = got
        assert got == expected[present]
        assert sorted(t.args[1].value for t in view.snapshot()) == got

    def segments():
        relations = [session.ctx.base_relation("edge", 2)]
        relations += view.instance.scope.local.values()
        for entry in session.memo._entries.values():
            relations += entry.instance.scope.local.values()
        return max(relation.segment_count() for relation in relations)

    costs = {}
    for n in range(1, 401):
        costs[n] = _cost(counts, lambda: toggle(n))
        if n == 10:
            early_segments = segments()
    assert costs[399] == costs[9]  # a delete and the read behind it
    assert costs[400] == costs[10]  # an insert, likewise
    assert segments() <= early_segments <= 16
    memo, live = session.memo.snapshot(), session.live.snapshot()
    assert live["rebuilds"] == 0 and live["refreshes"] == 400
    assert memo["evictions"] == 0 and memo["misses"] == 1
    assert memo["delete_refreshes"] == 200 and memo["insert_refreshes"] == 200
