"""Focused tests for the save-module facility (paper Section 5.4.2),
including the cross-call delta machinery ("no derivations are repeated
across multiple calls to the module")."""

import pytest

from repro import Session
from repro.errors import ModuleError

ORG = """
reports_to(alice, carol).   reports_to(bob, carol).
reports_to(carol, eve).     reports_to(dan, erin).
reports_to(erin, eve).      reports_to(frank, dan).
reports_to(grace, dan).     reports_to(heidi, alice).
reports_to(ivan, alice).    reports_to(judy, bob).
employee(alice). employee(bob). employee(carol). employee(dan).
employee(erin). employee(eve). employee(frank). employee(grace).
employee(heidi). employee(ivan). employee(judy).
"""

PEERS = """
module peers.
export peer(bf).
@save_module.
peer(X, Y) :- employee(X), X = Y.
peer(X, Y) :- reports_to(X, MX), peer(MX, MY), reports_to(Y, MY).
end_module.
"""

TC = """
edge(1,2). edge(2,3). edge(3,4). edge(5,6).
module tc. export path(bf). @save_module.
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""


class TestSaveModuleCorrectness:
    def test_second_call_combines_new_subgoals_with_old_answers(self):
        """The regression the cross-call delta versions exist for: frank's
        peer computation needs NEW supplementary facts joined with peer
        answers derived during alice's earlier call."""
        session = Session()
        session.consult_string(ORG + PEERS)
        assert sorted(a["Y"] for a in session.query("peer(alice, Y)")) == [
            "alice", "bob", "dan",
        ]
        assert sorted(a["Y"] for a in session.query("peer(frank, Y)")) == [
            "frank", "grace", "heidi", "ivan", "judy",
        ]

    def test_saved_answers_match_fresh_module_on_any_order(self):
        queries = ["frank", "alice", "judy", "eve", "heidi"]
        saved = Session()
        saved.consult_string(ORG + PEERS)
        fresh_program = ORG + PEERS.replace("@save_module.", "")
        for who in queries:
            fresh = Session()
            fresh.consult_string(fresh_program)
            expected = sorted(a["Y"] for a in fresh.query(f"peer({who}, Y)"))
            got = sorted(a["Y"] for a in saved.query(f"peer({who}, Y)"))
            assert got == expected, who

    def test_repeated_identical_call_does_no_new_work(self):
        session = Session()
        session.consult_string(ORG + PEERS)
        session.query("peer(alice, Y)").all()
        inferences = session.stats.inferences
        session.query("peer(alice, Y)").all()
        assert session.stats.inferences == inferences  # fully cached

    def test_aggregation_recomputed_on_resumption(self):
        """A new group member arriving in a later call must refresh the
        aggregate, not leave the old value behind."""
        session = Session()
        session.consult_string(
            """
            edge(a, b, 5). edge(a, c, 2). edge(c, b, 1).

            module m.
            export best(bbf).
            @save_module.
            cost(X, Y, C) :- edge(X, Y, C).
            cost(X, Y, C) :- edge(X, Z, C1), cost(Z, Y, C2), C = C1 + C2.
            best(X, Y, min(<C>)) :- cost(X, Y, C).
            end_module.
            """
        )
        assert [a["C"] for a in session.query("best(a, b, C)")] == [3]
        # second call on another pair still sees correct (re-aggregated) data
        assert [a["C"] for a in session.query("best(a, c, C)")] == [2]
        assert [a["C"] for a in session.query("best(a, b, C)")] == [3]

    def test_recursive_invocation_rejected(self):
        """Section 5.4.2: 'if a module uses the save module feature, it
        should not be invoked recursively.'"""
        session = Session()
        session.consult_string(
            """
            n(1).

            module a.
            export pa(b).
            @save_module.
            pa(X) :- n(X), pb(X).
            end_module.

            module b.
            export pb(b).
            pb(X) :- pa(X).
            end_module.
            """
        )
        with pytest.raises(ModuleError):
            session.query("pa(1)").all()

    @pytest.mark.parametrize("observer", ["profile", "flight", "tracing"])
    def test_resumption_under_an_observer(self, observer):
        """Every rule version a resumption runs is named by the observer's
        ``begin_rule``; naming one must not fail."""
        session = Session()
        session.consult_string(TC)
        assert session.query("path(1, Y)").tuples() == [(1, 2), (1, 3), (1, 4)]
        if observer == "profile":
            with session.profile():
                got = session.query("path(5, Y)").tuples()
        else:
            if observer == "flight":
                session.enable_flight_recorder()
            else:
                session.enable_tracing()
            got = session.query("path(5, Y)").tuples()
        assert got == [(5, 6)]

    def test_base_updates_reach_the_retained_state(self):
        """Inserts are absorbed by resumption; a delete starts afresh."""
        session = Session()
        session.consult_string(TC)
        assert session.query("path(1, Y)").tuples() == [(1, 2), (1, 3), (1, 4)]
        session.insert("edge", 4, 5)
        assert sorted(session.query("path(1, Y)").tuples()) == [
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
        ]
        assert sorted(session.query("path(3, Y)").tuples()) == [
            (3, 4), (3, 5), (3, 6),
        ]
        session.delete("edge", 2, 3)
        assert session.query("path(1, Y)").tuples() == [(1, 2)]

    def test_asking_whether_outdated_changes_nothing(self):
        session = Session()
        session.consult_string(TC)
        session.query("path(1, Y)").tuples()
        instance = session.modules.instance_for("tc", "path", "bf")
        session.insert("edge", 4, 5)
        for _ in range(3):
            assert not instance.outdated()
        assert session.modules.instance_for("tc", "path", "bf") is instance
        assert sorted(session.query("path(1, Y)").tuples()) == [
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
        ]

    def test_inserts_under_negation_start_afresh(self):
        session = Session()
        session.consult_string(
            """
            e(1). e(2).
            module m. export ok(b). @save_module.
            ok(X) :- e(X), not bad(X).
            end_module.
            """
        )
        assert session.query("ok(1)").tuples() == [(1,)]
        session.insert("bad", 1)
        assert session.query("ok(1)").tuples() == []

    def test_unload_drops_saved_state(self):
        session = Session()
        session.consult_string(ORG + PEERS)
        session.query("peer(alice, Y)").all()
        session.modules.unload("peers")
        session.consult_string(PEERS)
        assert sorted(a["Y"] for a in session.query("peer(alice, Y)")) == [
            "alice", "bob", "dan",
        ]
