"""Deeper tests for Ordered Search (Section 5.4.1): modularly stratified
negation and aggregation patterns beyond win/move."""

import pytest

from repro import Session
from repro.errors import StratificationError


class TestModularlyStratifiedNegation:
    def test_even_odd_over_successor(self):
        """even(X) :- not even(X-1): stratified *per subgoal*, not per
        predicate — the canonical modularly stratified example."""
        session = Session()
        session.consult_string(
            "".join(f"succ({i}, {i+1}). " for i in range(10))
            + """
            module parity.
            export even(b).
            @ordered_search.
            even(0).
            even(X) :- succ(Y, X), not even(Y).
            end_module.
            """
        )
        for n in range(10):
            holds = len(session.query(f"even({n})").all()) == 1
            assert holds == (n % 2 == 0), n

    def test_mutual_negation_through_subgoals(self):
        """Two predicates negating each other along an acyclic order."""
        session = Session()
        session.consult_string(
            "".join(f"succ({i}, {i+1}). " for i in range(8))
            + """
            module duel.
            export high(b).
            export low(b).
            @ordered_search.
            low(0).
            high(X) :- succ(Y, X), not high(Y), low(Y).
            low(X) :- succ(Y, X), not high(X), low(Y).
            end_module.
            """
        )
        # high alternates: high(1), low everywhere, high at odd positions
        assert len(session.query("high(1)").all()) == 1
        assert len(session.query("high(2)").all()) == 0

    def test_positive_recursion_inside_ordered_search(self):
        """Ordered search must still compute ordinary positive recursion
        (subgoal SCC fixpoints)."""
        session = Session()
        session.consult_string(
            "edge(a, b). edge(b, c). edge(c, a). edge(c, d)."
            + """
            module tc.
            export reach(bf).
            @ordered_search.
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- edge(X, Z), reach(Z, Y).
            end_module.
            """
        )
        answers = sorted(a["Y"] for a in session.query("reach(a, Y)"))
        assert answers == ["a", "b", "c", "d"]

    def test_memoization_across_subgoals(self):
        """The same subgoal reached from two places is evaluated once."""
        session = Session()
        session.consult_string(
            "edge(a, c). edge(b, c). edge(c, d). edge(d, e)."
            + """
            module tc.
            export reach(bf).
            @ordered_search.
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- edge(X, Z), reach(Z, Y).
            end_module.
            """
        )
        session.query("reach(a, Y)").all()
        subgoals_first = session.stats.subgoals
        session.query("reach(b, Y)").all()
        # b's query creates b's own subgoal (plus nothing else new would be
        # ideal; fresh instances recompute, so just check it's bounded)
        assert session.stats.subgoals <= subgoals_first * 2 + 1


class TestOrderedSearchAggregation:
    def test_aggregation_over_completed_subgoal(self):
        session = Session()
        session.consult_string(
            "score(t1, 3). score(t1, 5). score(t2, 9)."
            + """
            module m.
            export team_best(bf).
            @ordered_search.
            team_best(T, max(<S>)) :- score(T, S).
            end_module.
            """
        )
        assert [a["B"] for a in session.query("team_best(t1, B)")] == [5]

    def test_nested_aggregation_through_derived_pred(self):
        session = Session()
        session.consult_string(
            "pay(alice, dev, 120). pay(bob, dev, 100). pay(carol, ops, 90)."
            + """
            module m.
            export dept_total(bf).
            @ordered_search.
            member_pay(D, P) :- pay(E, D, P).
            dept_total(D, sum(<P>)) :- member_pay(D, P).
            end_module.
            """
        )
        assert [a["T"] for a in session.query("dept_total(dev, T)")] == [220]

    def test_figure_3_fallback_engages_ordered_search(self):
        """The Figure 3 program's magic rewriting is unstratified; the
        optimizer must engage the ordered-search fallback automatically."""
        session = Session()
        session.consult_string(
            "edge(a, b, 1)."
            + """
            module s_p.
            export s_p(bfff).
            @aggregate_selection p(X, Y, P, C) (X, Y) min(C).
            s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
            s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
            p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                               append([edge(Z, Y)], P, P1), C1 = C + EC.
            p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
            end_module.
            """
        )
        session.query("s_p(a, Y, P, C)").all()
        compiled = session.modules.compiled_form("s_p", "s_p", "bfff")
        assert compiled.ordered_search
        assert compiled.rewritten.technique == "none"

    def test_aggregate_selection_applies_per_subgoal(self):
        """Aggregate selections prune inside ordered-search memo tables."""
        session = Session()
        session.consult_string(
            "edge(a, b, 9). edge(a, b, 2). edge(b, c, 1)."
            + """
            module m.
            export cheap(bff).
            @ordered_search.
            @aggregate_selection c(X, Y, C) (X, Y) min(C).
            c(X, Y, C) :- edge(X, Y, C).
            c(X, Y, C) :- edge(X, Z, C1), c(Z, Y, C2), C = C1 + C2.
            cheap(X, Y, C) :- c(X, Y, C).
            end_module.
            """
        )
        answers = {(a["Y"], a["C"]) for a in session.query("cheap(a, Y, C)")}
        assert answers == {("b", 2), ("c", 3)}


FIGURE_3_PATHS = """
module s_p.
export p(bbfb, bbff, bfff).
{flag}
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                   append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
"""


class TestSelectionWithABoundNonGroupArgument:
    """A selection compares all the facts of a group, so an argument bound
    outside the grouping variables filters the *selected* facts: the
    cost-6 path from a to b is not a shortest path, whoever evaluates."""

    @pytest.mark.parametrize(
        "flag", ["@ordered_search.", "@no_rewriting.", ""],
        ids=["ordered_search", "no_rewriting", "default"],
    )
    def test_bound_cost_filters_the_minimum(self, flag):
        session = Session()
        session.consult_string(
            "edge(a, b, 1). edge(a, c, 1). edge(c, b, 5)."
            + FIGURE_3_PATHS.format(flag=flag)
        )
        assert session.query("p(a, b, P, 6)").all() == []
        assert [
            ([str(edge) for edge in a["P"]], a["C"])
            for a in session.query("p(a, b, P, C)")
        ] == [(["edge(a, b)"], 1)]
        assert sorted(
            (a["Y"], [str(edge) for edge in a["P"]], a["C"])
            for a in session.query("p(a, Y, P, C)")
        ) == [("b", ["edge(a, b)"], 1), ("c", ["edge(a, c)"], 1)]
