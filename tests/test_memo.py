"""Unit tests for the cross-query answer cache (:mod:`repro.eval.memo`):
hits, subsumption serving, incremental insert refresh, DRed delete repair,
damage-threshold eviction, the LRU byte budget, module annotations, and the
server's per-cursor snapshot pinning."""

import pytest

from repro import MemoPolicy, Session
from repro.client import RemoteSession
from repro.server import CoralServer

TC = """
edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).

module tc.
export path(bf, ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

DIAMOND = """
edge(1, 2). edge(1, 3). edge(2, 4). edge(3, 4). edge(4, 5).

module tc.
export path(bf, ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""


#: a right-linear recursion the optimizer factors; 4 reaches 5, 3 and 1 only
#: through b1(4, 5), and every cycle back to 4 runs through it or through 2
FACTORED = """
b1(1, 4). b1(2, 4). b1(3, 1). b1(3, 4). b1(4, 2). b1(4, 5). b1(5, 3). b1(6, 3).

module m.
export d1(bf).
%s
d1(X, Y) :- b1(X, Z), d1(Z, Y).
d1(X, Y) :- b1(X, Y).
end_module.
"""


def _memo_session(program=TC, **kwargs):
    session = Session(memo=kwargs.pop("memo", True), **kwargs)
    session.consult_string(program)
    return session


def _cold(program, *mutations):
    session = Session()
    session.consult_string(program)
    for op, pred, values in mutations:
        getattr(session, op)(pred, *values)
    return session


class TestHitsAndSubsumption:
    def test_repeated_query_is_a_hit_with_identical_answers(self):
        session = _memo_session()
        first = sorted(session.query("path(X, Y)").tuples())
        second = sorted(session.query("path(X, Y)").tuples())
        assert first == second
        stats = session.memo.snapshot()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["entries"] == 1

    def test_second_query_does_no_evaluation_work(self):
        session = _memo_session()
        session.query("path(X, Y)").all()
        before = session.stats.rule_applications
        session.query("path(X, Y)").all()
        assert session.stats.rule_applications == before

    def test_all_free_entry_serves_bound_query_by_filtering(self):
        session = _memo_session()
        session.query("path(X, Y)").all()
        bound = sorted(session.query("path(2, Y)").tuples())
        assert bound == [(2, 3), (2, 4), (2, 5)]
        stats = session.memo.snapshot()
        assert stats["subsumption_hits"] == 1
        assert stats["misses"] == 1  # no second evaluation

    def test_bound_entry_serves_more_bound_query(self):
        session = _memo_session()
        session.query("path(2, Y)").all()  # bf entry, X = 2
        assert sorted(session.query("path(2, 4)").tuples()) == [(2, 4)]
        # path(2, 4) maps to the bf form with X = 2 — the same cache key —
        # so the entry is reused (served filtered) without re-evaluating.
        stats = session.memo.snapshot()
        assert stats["hits"] + stats["subsumption_hits"] == 1
        assert stats["misses"] == 1

    def test_a_subsumed_hit_counts_its_index_in_the_entry_bytes(self):
        """A subsumed hit reads one bucket of a hash index on the entry;
        the entry's bytes count the index until a refresh drops it with
        the answers it was built over."""
        from repro.eval import memo as memo_module

        session = _memo_session()
        session.query("path(X, Y)").all()
        (entry,) = session.memo._entries.values()
        for key in (1, 2, 1):
            assert sorted(session.query(f"path({key}, Y)").tuples()) == [
                (key, y) for y in range(key + 1, 6)
            ]
        assert list(entry.indexes) == [(0,)]
        index_bytes = memo_module._estimate_index_bytes(entry.indexes[(0,)])
        assert index_bytes > 0
        assert entry.nbytes == memo_module._estimate_entry_bytes(entry) + index_bytes
        assert session.memo.snapshot()["bytes"] == entry.nbytes
        session.insert("edge", 5, 6)
        assert sorted(session.query("path(4, Y)").tuples()) == [(4, 5), (4, 6)]
        assert session.memo.snapshot()["subsumption_hits"] == 4
        assert list(entry.indexes) == [(0,)]  # built again over the new list
        session.insert("edge", 6, 7)
        session.query("path(X, Y)").all()  # refreshed, served whole
        assert entry.indexes == {}
        assert entry.nbytes == memo_module._estimate_entry_bytes(entry)
        assert session.memo.snapshot()["bytes"] == entry.nbytes

    def test_an_index_that_grows_an_entry_past_its_budget_evicts_it(self):
        sizing = _memo_session()
        sizing.query("path(X, Y)").all()
        size = sizing.memo.snapshot()["bytes"]
        # a quarter of the budget is one byte more than the entry itself
        session = _memo_session(memo=MemoPolicy(max_bytes=4 * size + 4))
        session.query("path(X, Y)").all()
        assert session.memo.snapshot()["entries"] == 1
        assert sorted(session.query("path(2, Y)").tuples()) == [(2, 3), (2, 4), (2, 5)]
        stats = session.memo.snapshot()
        assert stats["subsumption_hits"] == 1 and stats["evictions"] == 1
        assert stats["entries"] == 0 and stats["bytes"] == 0

    def test_distinct_bound_values_are_distinct_entries(self):
        session = _memo_session()
        session.query("path(1, Y)").all()
        session.query("path(3, Y)").all()
        assert session.memo.snapshot()["entries"] == 2

    def test_memo_off_by_default(self):
        session = Session()
        session.consult_string(TC)
        session.query("path(X, Y)").all()
        assert session.memo is None


class TestInsertInvalidation:
    def test_insert_refreshes_incrementally(self):
        session = _memo_session()
        assert len(session.query("path(1, Y)").tuples()) == 4
        session.insert("edge", 5, 6)
        got = sorted(session.query("path(1, Y)").tuples())
        want = sorted(
            _cold(TC, ("insert", "edge", (5, 6))).query("path(1, Y)").tuples()
        )
        assert got == want
        stats = session.memo.snapshot()
        assert stats["insert_refreshes"] == 1
        assert stats["evictions"] == 0  # repaired in place, not rebuilt

    def test_insert_to_unrelated_predicate_does_not_invalidate(self):
        session = _memo_session()
        session.query("path(X, Y)").all()
        session.insert("unrelated", 1)
        session.query("path(X, Y)").all()
        stats = session.memo.snapshot()
        assert stats["invalidations"] == 0 and stats["hits"] == 1

    def test_new_derived_cycle_after_insert(self):
        session = _memo_session()
        session.query("path(X, Y)").all()
        session.insert("edge", 5, 1)  # closes a cycle through every node
        got = sorted(session.query("path(X, Y)").tuples())
        want = sorted(
            _cold(TC, ("insert", "edge", (5, 1))).query("path(X, Y)").tuples()
        )
        assert got == want


class TestDeleteInvalidation:
    def test_delete_runs_dred_and_matches_cold(self):
        session = _memo_session()
        session.query("path(X, Y)").all()
        session.delete("edge", 2, 3)
        got = sorted(session.query("path(X, Y)").tuples())
        want = sorted(
            _cold(TC, ("delete", "edge", (2, 3))).query("path(X, Y)").tuples()
        )
        assert got == want
        stats = session.memo.snapshot()
        assert stats["delete_refreshes"] == 1
        assert stats["dred_overdeleted"] > 0

    def test_rederivation_through_alternative_support(self):
        session = _memo_session(DIAMOND)
        session.query("path(1, Y)").all()
        session.delete("edge", 2, 4)  # path(1,4) survives via edge(3,4)
        got = sorted(session.query("path(1, Y)").tuples())
        assert got == [(1, 2), (1, 3), (1, 4), (1, 5)]
        assert session.memo.snapshot()["dred_rederived"] > 0

    def test_cyclic_support_is_not_rederived(self):
        session = _memo_session(
            """
            e(1, 2). e(2, 3). e(3, 1). e(0, 1).
            module m.
            export reach(bf).
            reach(X, Y) :- e(X, Y).
            reach(X, Y) :- reach(X, Z), e(Z, Y).
            end_module.
            """
        )
        assert sorted(session.query("reach(0, Y)").tuples()) == [
            (0, 1), (0, 2), (0, 3),
        ]
        session.delete("e", 0, 1)
        assert session.query("reach(0, Y)").tuples() == []

    @pytest.mark.parametrize("memo", [False, True])
    @pytest.mark.parametrize("flag", ["", "@supplementary_magic."])
    def test_factored_entry_does_not_go_stale_on_delete(self, flag, memo):
        """Regression: a factored context relation generates answers, so it
        must shrink under DRed (a stale ctx_d1(5) kept 1 and 3 alive) — all
        but the call's own seed ctx_d1(4), which no rule derives."""
        session = Session(memo=memo)
        session.consult_string(FACTORED % flag)
        technique = session.modules.compiled_form(
            "m", "d1", "bf"
        ).rewritten.technique
        assert technique == ("supplementary_magic" if flag else "factoring")
        assert sorted(session.query("d1(4, Y)").tuples()) == [
            (4, 1), (4, 2), (4, 3), (4, 4), (4, 5),
        ]
        session.delete("b1", 4, 5)
        assert sorted(session.query("d1(4, Y)").tuples()) == [(4, 2), (4, 4)]
        if memo:
            stats = session.memo.snapshot()
            assert stats["delete_refreshes"] == 1 and stats["evictions"] == 0

    def test_insert_then_delete_batch(self):
        session = _memo_session()
        session.query("path(X, Y)").all()
        session.insert("edge", 5, 6)
        session.delete("edge", 3, 4)
        session.insert("edge", 3, 6)
        got = sorted(session.query("path(X, Y)").tuples())
        want = sorted(
            _cold(
                TC,
                ("insert", "edge", (5, 6)),
                ("delete", "edge", (3, 4)),
                ("insert", "edge", (3, 6)),
            ).query("path(X, Y)").tuples()
        )
        assert got == want

    def test_damage_threshold_evicts_instead_of_repairing(self, monkeypatch):
        monkeypatch.setattr("repro.eval.maintenance.DAMAGE_THRESHOLD", 0.0)
        session = _memo_session()
        session.query("path(X, Y)").all()
        session.delete("edge", 1, 2)
        got = sorted(session.query("path(X, Y)").tuples())
        want = sorted(
            _cold(TC, ("delete", "edge", (1, 2))).query("path(X, Y)").tuples()
        )
        assert got == want


class TestRepairFallbackIsVisible:
    """A failed repair still degrades to eviction — but says why, so a
    repair path that always fails cannot pass for one that works."""

    #: a 20-node chain: deleting the middle edge over-deletes 10 * 10 facts
    CHAIN = "".join(f"edge({n}, {n + 1}).\n" for n in range(1, 20)) + TC[
        TC.index("module tc."):
    ]

    @staticmethod
    def _events(prof, name):
        return [
            event for event in prof.profile.chrome_trace()["traceEvents"]
            if event["name"] == name
        ]

    def test_damage_eviction_is_counted_and_traced_as_damage(self, monkeypatch):
        monkeypatch.setattr("repro.eval.maintenance.DAMAGE_THRESHOLD", 0.0)
        session = _memo_session(self.CHAIN)
        session.query("path(X, Y)").all()
        session.delete("edge", 10, 11)
        with session.profile() as prof:
            got = sorted(session.query("path(X, Y)").tuples())
        want = sorted(
            _cold(self.CHAIN, ("delete", "edge", (10, 11)))
            .query("path(X, Y)").tuples()
        )
        assert got == want
        stats = session.memo.snapshot()
        assert stats["evictions"] == 1
        assert stats["evictions_damage"] == 1 and stats["evictions_error"] == 0
        (event,) = self._events(prof, "memo.evict")
        assert event["args"]["reason"] == "damage"

    def test_failing_repair_is_counted_and_traced_by_exception_type(
        self, monkeypatch
    ):
        from repro.eval.maintenance import MaintenancePlan

        def broken(self, change=None):
            raise ZeroDivisionError("a repair path that always throws")

        monkeypatch.setattr(MaintenancePlan, "apply_inserts", broken)
        session = _memo_session()
        session.query("path(X, Y)").all()
        session.insert("edge", 5, 6)
        with session.profile() as prof:
            got = sorted(session.query("path(X, Y)").tuples())
        want = sorted(
            _cold(TC, ("insert", "edge", (5, 6))).query("path(X, Y)").tuples()
        )
        assert got == want  # recomputed: still right, only slower
        stats = session.memo.snapshot()
        assert stats["evictions_error"] == 1 and stats["evictions_damage"] == 0
        (event,) = self._events(prof, "memo.evict")
        assert event["args"]["reason"] == "ZeroDivisionError"

    def test_subsumption_scan_survives_evicting_the_entry_it_is_trying(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.eval.maintenance.DAMAGE_THRESHOLD", 0.0)
        session = _memo_session(self.CHAIN)
        session.query("path(X, Y)").all()  # the all-free entry
        session.delete("edge", 10, 11)
        # path(bf) has no entry of its own, so the lookup tries to serve it
        # from the stale all-free one — whose repair trips the damage budget
        assert sorted(session.query("path(1, Y)").tuples()) == [
            (1, n) for n in range(2, 11)
        ]
        assert session.memo.snapshot()["evictions_damage"] == 1


class TestUnmaintainableEntries:
    NEGATION = """
    e(1, 2). e(2, 3). blocked(2).

    module m.
    export ok(ff).
    ok(X, Y) :- e(X, Y), not blocked(X).
    end_module.
    """

    def test_negation_entry_is_evicted_on_update_but_stays_correct(self):
        session = _memo_session(self.NEGATION)
        assert sorted(session.query("ok(X, Y)").tuples()) == [(1, 2)]
        session.insert("blocked", 1)
        assert session.query("ok(X, Y)").tuples() == []
        session.delete("blocked", 2)
        assert sorted(session.query("ok(X, Y)").tuples()) == [(2, 3)]
        assert session.memo.snapshot()["evictions"] >= 2

    def test_aggregates_are_correct_after_update(self):
        program = """
        item(a, 3). item(a, 5). item(b, 9).
        module agg.
        export best(ff).
        best(G, max(<V>)) :- item(G, V).
        end_module.
        """
        session = _memo_session(program)
        assert sorted(session.query("best(G, V)").tuples()) == [
            ("a", 5), ("b", 9),
        ]
        session.insert("item", "a", 8)
        assert sorted(session.query("best(G, V)").tuples()) == [
            ("a", 8), ("b", 9),
        ]


class TestCompiledEntries:
    def test_push_entries_are_repaired_not_evicted(self):
        """Push flushes into the instance's relations, so a compiled entry
        is maintained like an interpreted one."""
        session = _memo_session(compiled="push")
        queries = ("path(1, Y)", "path(X, Y)")
        mutations = [("insert", "edge", (5, 6)), ("delete", "edge", (2, 3))]
        for query in queries:
            session.query(query).all()
        for done, (op, pred, values) in enumerate(mutations, start=1):
            getattr(session, op)(pred, *values)
            cold = _cold(TC, *mutations[:done])
            for query in queries:
                assert sorted(session.query(query).tuples()) == sorted(
                    cold.query(query).tuples()
                ), (query, mutations[:done])
        stats = session.memo.snapshot()
        assert stats["evictions"] == 0 and stats["hits"] > 0
        assert stats["insert_refreshes"] > 0 and stats["delete_refreshes"] > 0


class TestPoliciesAndAnnotations:
    def test_no_memo_annotation_disables_caching(self):
        session = _memo_session(TC.replace("module tc.", "module tc.\n@no_memo."))
        session.query("path(X, Y)").all()
        session.query("path(X, Y)").all()
        assert session.memo.snapshot()["entries"] == 0

    def test_annotated_policy_requires_memo_flag(self):
        session = _memo_session(memo="annotated")
        session.query("path(X, Y)").all()
        assert session.memo.snapshot()["entries"] == 0

        opted_in = _memo_session(
            TC.replace("module tc.", "module tc.\n@memo."), memo="annotated"
        )
        opted_in.query("path(X, Y)").all()
        assert opted_in.memo.snapshot()["entries"] == 1

    def test_byte_budget_evicts_least_recently_used(self):
        # five disjoint three-node chains: path(10k, Y) entries of one size
        program = "".join(
            f"edge({10 * k}, {10 * k + 1}). edge({10 * k + 1}, {10 * k + 2}).\n"
            for k in range(5)
        ) + TC[TC.index("module tc."):]
        sizing = _memo_session(program)
        sizing.query("path(0, Y)").all()
        size = sizing.memo.snapshot()["bytes"]
        # room for four entries: each is retained, the fifth evicts the first
        session = _memo_session(program, memo=MemoPolicy(max_bytes=4 * size))
        with session.profile() as prof:
            for k in range(5):
                session.query(f"path({10 * k}, Y)").all()
        stats = session.memo.snapshot()
        assert stats["entries"] == 4 and stats["evictions"] == 1
        (event,) = TestRepairFallbackIsVisible._events(prof, "memo.evict")
        assert event["args"]["reason"] == "budget"
        assert event["args"]["max_bytes"] == 4 * size
        assert stats["bytes"] == 4 * size
        # the evicted entry recomputes correctly
        assert sorted(session.query("path(0, Y)").tuples()) == [(0, 1), (0, 2)]
        assert session.memo.snapshot()["misses"] == 6

    def test_an_entry_a_refresh_grows_past_its_budget_is_evicted(self):
        session = _memo_session(
            TC.replace("edge(1, 2).", "edge(0, 1). edge(1, 2)."),
            memo=MemoPolicy(max_bytes=40_000),
        )
        session.query("path(0, Y)").all()
        assert session.memo.snapshot()["entries"] == 1
        for n in range(5, 404):
            session.insert("edge", n, n + 1)
        got = sorted(session.query("path(0, Y)").tuples())
        assert got == [(0, n) for n in range(1, 405)]  # served, then dropped
        stats = session.memo.snapshot()
        assert stats["insert_refreshes"] == 1
        assert stats["entries"] == 0 and stats["bytes"] == 0

    def test_an_entry_evicted_past_its_budget_is_traced_so(self):
        """The eviction of an entry a refresh grew past its budget names
        the entry and the budget, as damage, error and refusal evictions
        name theirs."""
        session = _memo_session(
            TC.replace("edge(1, 2).", "edge(0, 1). edge(1, 2)."),
            memo=MemoPolicy(max_bytes=40_000),
        )
        session.query("path(0, Y)").all()
        for n in range(5, 404):
            session.insert("edge", n, n + 1)
        with session.profile() as prof:
            session.query("path(0, Y)").all()
        (event,) = TestRepairFallbackIsVisible._events(prof, "memo.evict")
        assert event["args"]["reason"] == "budget"
        assert event["args"]["max_bytes"] == 40_000
        assert (event["args"]["pred"], event["args"]["form"]) == ("path/2", "bf")
        assert session.memo.snapshot()["evictions"] == 1

    def test_save_module_entry_is_evicted_on_update_with_its_reason(self):
        """A save-module form's ``maintain`` verdict is a refusal like any
        other: its entry serves until an update, which evicts it saying
        why, and the retained instance absorbs the insert."""
        program = TC.replace("module tc.", "module tc.\n@save_module.")
        session = _memo_session(program)
        session.query("path(1, Y)").all()
        assert session.memo.snapshot()["entries"] == 1
        with session.profile() as prof:
            session.insert("edge", 5, 6)
        (event,) = [
            event for event in prof.profile.chrome_trace()["traceEvents"]
            if event["name"] == "memo.evict"
        ]
        assert "@save_module" in event["args"]["reason"]
        assert sorted(session.query("path(1, Y)").tuples()) == sorted(
            _cold(program, ("insert", "edge", (5, 6))).query("path(1, Y)").tuples()
        )

    def test_module_load_clears_cache(self):
        session = _memo_session()
        session.query("path(X, Y)").all()
        assert session.memo.snapshot()["entries"] == 1
        session.consult_string(
            "module other.\nexport q(f).\nq(1).\nend_module.\n"
        )
        assert session.memo.snapshot()["entries"] == 0


class TestObservability:
    def test_profile_carries_memo_counters(self):
        session = _memo_session()
        with session.profile() as prof:
            session.query("path(X, Y)").all()
            session.query("path(X, Y)").all()
        memo = prof.profile.memo
        assert memo is not None
        assert memo["misses"] == 1 and memo["hits"] == 1
        assert memo["entries"] == 1 and memo["bytes"] > 0
        assert prof.profile.to_dict()["memo"]["hits"] == 1
        registry = prof.profile.registry
        assert "memo.events" in registry
        assert "memo.entries" in registry and "memo.bytes" in registry

    def test_trace_has_memo_instants(self):
        session = _memo_session()
        with session.profile() as prof:
            session.query("path(X, Y)").all()
            session.query("path(X, Y)").all()
        names = {
            event["name"]
            for event in prof.profile.chrome_trace()["traceEvents"]
        }
        assert "memo.miss" in names and "memo.hit" in names


class TestServerIntegration:
    def test_stats_op_reports_memo_counters(self):
        session = Session(memo=True)
        session.consult_string(TC)
        with CoralServer(session, port=0) as server:
            with RemoteSession(*server.address) as db:
                db.query("path(X, Y)").all()
                db.query("path(X, Y)").all()
                stats = db.stats()
        assert stats["memo"]["hits"] >= 1
        assert stats["memo"]["entries"] == 1

    def test_cursor_pins_snapshot_across_concurrent_invalidation(self):
        """A streaming FETCH must never observe an invalidation mid-cursor:
        the cursor drains the answer snapshot it started on, while a fresh
        query sees the refreshed answers."""
        session = Session(memo=True)
        session.consult_string(TC)
        with CoralServer(session, port=0) as server:
            with RemoteSession(*server.address, batch_size=2) as db:
                db.query("path(X, Y)").all()  # warm the cache
                cursor = db.query("path(X, Y)", batch_size=2)
                assert cursor.get_next() is not None
                # concurrent update invalidates + refreshes the entry
                with RemoteSession(*server.address) as writer:
                    writer.insert("edge", 5, 6)
                    fresh = sorted(writer.query("path(X, Y)").tuples())
                # .all() drains the rest, including the cached first answer
                pinned = sorted(
                    (answer["X"], answer["Y"]) for answer in cursor.all()
                )
        old = sorted(
            (x, y) for x in range(1, 6) for y in range(x + 1, 6)
        )
        new = sorted(
            (x, y) for x in range(1, 7) for y in range(x + 1, 7)
        )
        assert pinned == old  # cursor never saw the mid-stream update
        assert fresh == new  # a fresh query did
