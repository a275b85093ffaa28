"""Behavioral tests for the module system: query-form choice, lazy cursors,
inter-module transparency, the rewritten-program listing, and the per-module
strategy mixing the paper calls its central contribution."""

import pytest

from repro import Session
from repro.language.ast import ExportDecl
from repro.modules.manager import ModuleManager
from repro.eval.context import EvalContext


class TestQueryFormChoice:
    def _manager(self):
        return ModuleManager(EvalContext())

    def test_exact_match_preferred(self):
        manager = self._manager()
        export = ExportDecl("p", 2, ("bf", "ff"))
        assert manager.choose_form(export, [True, False]) == "bf"

    def test_more_bound_form_wins(self):
        manager = self._manager()
        export = ExportDecl("p", 2, ("bf", "bb"))
        assert manager.choose_form(export, [True, True]) == "bb"

    def test_form_requiring_unbound_arg_skipped(self):
        manager = self._manager()
        export = ExportDecl("p", 2, ("bb",))
        # call binds only the first argument: bb unusable -> all-free fallback
        assert manager.choose_form(export, [True, False]) == "ff"

    def test_bound_call_can_use_free_form(self):
        manager = self._manager()
        export = ExportDecl("p", 2, ("ff",))
        assert manager.choose_form(export, [True, True]) == "ff"


class TestLazyCursors:
    PROGRAM = (
        "".join(f"edge({i}, {i+1}). " for i in range(30))
        + """
        module tc.
        export path(bf).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- path(X, Z), edge(Z, Y).
        end_module.
        """
    )

    def test_two_concurrent_cursors_independent(self):
        session = Session()
        session.consult_string(self.PROGRAM)
        first = session.query("path(0, Y)")
        second = session.query("path(10, Y)")
        a1 = first.get_next()
        b1 = second.get_next()
        a2 = first.get_next()
        assert a1 is not None and b1 is not None and a2 is not None
        assert len(first.all()) == 30
        assert len(second.all()) == 20

    def test_cursor_restart_via_iteration(self):
        session = Session()
        session.consult_string(self.PROGRAM)
        result = session.query("path(5, Y)")
        once = [a["Y"] for a in result]
        again = [a["Y"] for a in result]  # cached replay
        assert once == again


class TestListingAndStats:
    def test_listing_shows_technique_and_sccs(self):
        session = Session()
        session.consult_string(
            """
            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        listing = session.modules.compiled_form("tc", "path", "bf").listing()
        assert "% technique: factoring" in listing
        assert "%   none: rejected — form bf binds arguments" in listing
        assert "%   factoring: chosen" in listing
        assert "% scc:" in listing
        assert "ctx_path" in listing

    def test_stats_reset(self):
        session = Session()
        session.insert("p", 1)
        session.query("p(X)").all()
        session.stats.reset()
        assert session.stats.snapshot()["inferences"] == 0


class TestStrategyMixing:
    """Section 5: 'the free mixing of different evaluation techniques in
    different modules ... is central to how different executions in
    different modules are combined cleanly.'"""

    PROGRAM = """
    edge(1, 2). edge(2, 3). edge(3, 4). blocked(3).

    module closure.
    export path(bf).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    end_module.

    module filterer.
    export open_path(bf).
    @pipelining.
    open_path(X, Y) :- path(X, Y), not blocked(Y).
    end_module.

    module summary.
    export fanout(ff).
    fanout(X, count(<Y>)) :- open_path(X, Y).
    end_module.
    """

    def test_three_strategies_chain(self):
        """materialized -> pipelined -> aggregating, one call chain."""
        session = Session()
        session.consult_string(self.PROGRAM)
        open_from_1 = sorted(a["Y"] for a in session.query("open_path(1, Y)"))
        assert open_from_1 == [2, 4]
        rows = {(a["X"], a["N"]) for a in session.query("fanout(X, N)")}
        assert (1, 2) in rows
        assert (3, 1) in rows  # 3 -> 4 only

    def test_module_call_stats_counted(self):
        session = Session()
        session.consult_string(self.PROGRAM)
        session.query("open_path(1, Y)").all()
        assert session.stats.module_calls >= 2


class TestAnswerSurface:
    def test_query_values_none_is_free(self):
        session = Session()
        session.insert("edge", 1, 2)
        session.insert("edge", 1, 3)
        result = session.query_values("edge", 1, None)
        assert sorted(r[1] for r in result.tuples()) == [2, 3]

    def test_answer_variables_dict(self):
        session = Session()
        session.insert("edge", 1, 2)
        answer = session.query("edge(A, B)").all()[0]
        assert answer.variables() == {"A": 1, "B": 2}

    def test_anonymous_variable_not_reported(self):
        session = Session()
        session.insert("edge", 1, 2)
        answer = session.query("edge(A, _)").all()[0]
        assert answer.variables() == {"A": 1}

    def test_len_of_result(self):
        session = Session()
        session.insert("p", 1)
        session.insert("p", 2)
        assert len(session.query("p(X)")) == 2
