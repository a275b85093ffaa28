"""What Ordered Search costs, in counts (never timings): each subgoal's
answers are generated once.

A subgoal that read only base relations and done subgoals is done after one
pass over its rules; only a subgoal that reached itself (or an open subgoal)
is iterated.  A call that a done subgoal subsumes opens no subgoal.  Either
going missing still gives right answers, so only a count shows it."""

import pytest

from repro import Session
from repro.errors import StratificationError
from repro.eval.ordered import OrderedSearchEvaluator

from tests.test_maintenance_cost import LAYERS, WIDTH, layered_dag

# the perf ledger's SP_MODULE (the paper's Figure 3)
SP = """
module s_p.
export s_p(bfff).
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                   append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
"""

GAME = """
module game.
export win(b, f).
@ordered_search.
win(X) :- move(X, Y), not win(Y).
end_module.
"""


@pytest.fixture
def passes(monkeypatch):
    """Passes over a subgoal's rules, by predicate, while counting is on."""
    seen = {}
    apply_rules = OrderedSearchEvaluator._apply_rules

    def counted(self, subgoal):
        seen[subgoal.pred] = seen.get(subgoal.pred, 0) + 1
        return apply_rules(self, subgoal)

    monkeypatch.setattr(OrderedSearchEvaluator, "_apply_rules", counted)
    return seen


def test_figure_3_read_opens_three_subgoals_and_iterates_only_p(passes):
    edges = layered_dag()
    session = Session()
    session.consult_string(
        "".join(f"edge({a}, {b}, {1 + (a + b) % 3}).\n" for a, b in edges) + SP
    )
    before = session.stats.subgoals
    answers = session.query("s_p(0, Y, P, C)").all()
    # every node below layer 0 in the source's cone, one shortest path each
    assert len(answers) == len({a["Y"] for a in answers}) > LAYERS
    # s_p(0,_,_,_), s_p_length(0,_,_) and p(0,_,_,_): the p(0, y, P, c) call
    # per answer is served by the done p(0,_,_,_)
    assert session.stats.subgoals - before == 3
    assert passes["s_p"] == 1
    assert passes["s_p_length"] == 1
    assert passes["p"] > 1
    assert set(passes) == {"s_p", "s_p_length", "p"}


def test_acyclic_win_move_applies_each_subgoals_rules_once(passes):
    moves = layered_dag(layers=4, width=WIDTH)
    session = Session()
    session.consult_string("".join(f"move({a}, {b}).\n" for a, b in moves) + GAME)
    before = session.stats.subgoals
    session.query("win(0)").all()
    subgoals = session.stats.subgoals - before
    assert subgoals > LAYERS
    assert passes == {"win": subgoals}


def test_an_open_subgoal_is_never_taken_for_done():
    """``win(X)`` calls ``win(b)``, ``win(c)``, ... while it is open itself:
    it subsumes every one of them and has none of their answers yet, so each
    must get its own subgoal.  On a cycle ``win(a)`` is reached again while
    open and must not be completed after its first pass either."""
    session = Session()
    session.consult_string("move(a, b). move(b, c). move(c, d). move(a, d)." + GAME)
    assert sorted(a["X"] for a in session.query("win(X)")) == ["a", "c"]

    session = Session()
    session.consult_string("move(a, b). move(b, c). move(c, a). move(c, d)." + GAME)
    with pytest.raises(StratificationError):
        session.query("win(a)").all()
