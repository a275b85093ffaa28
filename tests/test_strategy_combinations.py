"""Combination tests: annotation interactions the individual features'
tests don't cover (psn+save, compiled+psn, goalid+aggregation, ordered
search calling other modules, multiset+pipelining, join_ordering+magic)."""

import pytest

from repro import Session

GRAPH = "edge(1, 2). edge(2, 3). edge(3, 4). edge(2, 4)."


def tc(flags: str) -> str:
    return (
        GRAPH
        + f"""
        module tc.
        export path(bf).
        {flags}
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        end_module.
        """
    )


EXPECTED = [2, 3, 4, 4]  # answers for path(1, Y) before dedup in assertion


class TestFlagCombinations:
    @pytest.mark.parametrize(
        "flags",
        [
            "@psn.\n@save_module.",
            "@compiled.\n@psn.",
            "@compiled.\n@eager_eval.",
            "@magic.\n@join_ordering.",
            "@supplementary_magic_goalid.\n@psn.",
            "@no_backjumping.\n@no_index_selection.\n@psn.",
            "@context_factoring.\n@eager_eval.",
        ],
        ids=lambda f: f.replace("\n", "+").replace("@", "").replace(".", ""),
    )
    @pytest.mark.parametrize("compiled", ["push", None], ids=["push", "interp"])
    def test_combinations_agree(self, flags, compiled):
        # the interpreter column keeps PSN, backjumping and the rewritings'
        # delta loops checked now that a default session pushes
        session = Session(compiled=compiled)
        session.consult_string(tc(flags))
        got = sorted(a["Y"] for a in session.query("path(1, Y)"))
        assert got == [2, 3, 4]

    def test_save_module_with_psn_across_calls(self):
        session = Session(compiled=None)
        session.consult_string(tc("@psn.\n@save_module."))
        assert sorted(a["Y"] for a in session.query("path(1, Y)")) == [2, 3, 4]
        assert sorted(a["Y"] for a in session.query("path(2, Y)")) == [3, 4]
        assert sorted(a["Y"] for a in session.query("path(3, Y)")) == [4]

    def test_goalid_with_aggregation(self):
        session = Session()
        session.consult_string(
            """
            e(a, b, 4). e(b, c, 1). e(a, c, 9).

            module m.
            export best(bbf).
            @supplementary_magic_goalid.
            cost(X, Y, C) :- e(X, Y, C).
            cost(X, Y, C) :- e(X, Z, C1), cost(Z, Y, C2), C = C1 + C2.
            best(X, Y, min(<C>)) :- cost(X, Y, C).
            end_module.
            """
        )
        assert [a["C"] for a in session.query("best(a, c, C)")] == [5]

    def test_ordered_search_module_calls_materialized_module(self):
        session = Session()
        session.consult_string(
            """
            move(a, b). move(b, c).
            raw(a). raw(b). raw(c).

            module nodes.
            export node(b).
            node(X) :- raw(X).
            end_module.

            module game.
            export win(b).
            @ordered_search.
            win(X) :- node(X), move(X, Y), not win(Y).
            end_module.
            """
        )
        assert len(session.query("win(b)").all()) == 1
        assert len(session.query("win(c)").all()) == 0

    def test_multiset_pipelined_module(self):
        """Pipelining already returns one answer per proof; multiset on a
        materialized consumer of a pipelined producer keeps the copies."""
        session = Session()
        session.consult_string(
            """
            pair(1, x). pair(1, y).

            module src.
            export item(f).
            @pipelining.
            item(K) :- pair(K, V).
            end_module.

            module sink.
            export copies(f).
            @multiset copies.
            copies(K) :- item(K).
            end_module.
            """
        )
        assert len(session.query("copies(K)").all()) == 2

    def test_lint_flags_do_not_break_compile(self):
        session = Session()
        session.consult_string(tc("@join_ordering.\n@no_index_selection."))
        compiled = session.modules.compiled_form("tc", "path", "bf")
        assert compiled.rewritten.technique == "factoring"
