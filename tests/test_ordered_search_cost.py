"""What Ordered Search costs, in counts (never timings): each subgoal's
answers are generated once.

A subgoal that read only base relations and done subgoals is done after one
pass over its rules; only a subgoal that reached itself (or an open subgoal)
is iterated.  A call that a done subgoal subsumes opens no subgoal.  An
iterated SCC is evaluated semi-naively over rules prepared once per subgoal:
a combination of answers is joined once, a rule that read nothing that can
grow is run once, and nothing is renamed after a subgoal's first pass.
Any of these going missing still gives right answers, so only a count shows
it."""

from collections import Counter

import pytest

import repro.eval.ordered as ordered
from repro import Session
from repro.errors import StratificationError
from repro.eval.ordered import OrderedSearchEvaluator
from repro.terms import resolve

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


# -- the SCC loop is semi-naive (ISSUE 20) ------------------------------------

#: inferences of one ``s_p(0, Y, P, C)`` read over the weighted DAG below
#: while the SCC of ``p(0, _, _, _)`` was iterated naively (the parent
#: commit), and now
NAIVE_FIGURE_3_INFERENCES = 204
FIGURE_3_INFERENCES = 106


def figure_3_session():
    session = Session()
    session.consult_string(
        "".join(
            f"edge({a}, {b}, {1 + (a + b) % 3}).\n" for a, b in layered_dag()
        ) + SP
    )
    return session


def test_figure_3_read_joins_each_combination_once(passes, monkeypatch):
    runs = Counter()
    run = OrderedSearchEvaluator._run

    def counted_run(self, subgoal, prepared, entry):
        runs[prepared.rule.head.pred, len(prepared.rule.body)] += 1
        return run(self, subgoal, prepared, entry)

    monkeypatch.setattr(OrderedSearchEvaluator, "_run", counted_run)
    renames = [0]
    rename_term = ordered.rename_term

    def counted_rename(term, mapping):
        renames[0] += 1
        return rename_term(term, mapping)

    monkeypatch.setattr(ordered, "rename_term", counted_rename)
    after_pass = []
    apply_rules = OrderedSearchEvaluator._apply_rules  # the counting fixture's

    def watched(self, subgoal):
        lowlink = apply_rules(self, subgoal)
        if subgoal.pred == "p":
            after_pass.append(renames[0])
        return lowlink

    monkeypatch.setattr(OrderedSearchEvaluator, "_apply_rules", watched)

    session = figure_3_session()
    before = session.stats.snapshot()
    assert len(session.query("s_p(0, Y, P, C)").all()) == 30
    spent = {
        name: count - before[name]
        for name, count in session.stats.snapshot().items()
    }
    assert spent["inferences"] == FIGURE_3_INFERENCES
    assert FIGURE_3_INFERENCES <= 0.6 * NAIVE_FIGURE_3_INFERENCES
    # the recursive rule runs in every pass, the exit rule (it reads a base
    # relation only) in the first, the two non-recursive predicates once
    assert passes["p"] > 2
    assert runs == {
        ("p", 4): passes["p"], ("p", 1): 1, ("s_p", 2): 1, ("s_p_length", 1): 1,
    }
    assert spent["rule_applications"] == sum(runs.values())
    assert spent["iterations"] == passes["p"] - 1
    # p's rules are renamed by its first pass and never again
    assert len(after_pass) == passes["p"]
    assert after_pass[0] > 0 and len(set(after_pass)) == 1


def test_probes_of_a_done_general_subgoal_are_indexed_once(monkeypatch):
    evaluators = []
    init = OrderedSearchEvaluator.__init__

    def remembered(self, scope, compiled):
        evaluators.append(self)
        init(self, scope, compiled)

    monkeypatch.setattr(OrderedSearchEvaluator, "__init__", remembered)
    session = figure_3_session()
    session.query("s_p(0, Y, P, C)").all()
    (evaluator,) = evaluators
    (general,) = evaluator.done_general["p", 4]
    # 30 calls p(0, y, P, c) probed it on (Y, C): one index, not 30
    assert [spec.describe() for spec in general.answers.index_specs] == ["args(2,4)"]


RING = """
module tc.
export path(bf).
@ordered_search.
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

#: inferences of ``path(0, Y)`` on a ring of n nodes: n subgoals in one SCC,
#: each deriving its n answers once, plus the n exit-rule facts.  Iterated
#: naively the same reads took 7,070 and 54,940 (x 7.8: cubic).
RING_INFERENCES = {20: 420, 40: 1640}


@pytest.mark.parametrize("n", sorted(RING_INFERENCES))
def test_a_ring_of_n_subgoals_costs_n_squared_inferences(n):
    session = Session()
    session.consult_string(
        "".join(f"edge({i}, {(i + 1) % n}).\n" for i in range(n)) + RING
    )
    before = session.stats.inferences
    assert len(session.query("path(0, Y)").all()) == n
    assert session.stats.inferences - before == RING_INFERENCES[n] == n * n + n


def test_no_combination_of_answers_is_joined_twice(monkeypatch):
    """The invariant of the semi-naive SCC loop, on the case that breaks a
    per-literal delta: in ``t(X, Y) :- t(X, Z), t(Z, Y)`` a fresh ``t(x, z)``
    makes a new call that must see old answers, and an old one must see only
    new ones.  Every head built is keyed by the rule instance (a prepared
    rule's head arguments are renamed once) and the body's bindings, which
    name the two answers joined."""
    built = Counter()
    instantiate_head = ordered.instantiate_head

    def recording(head_args, env):
        bindings = sorted(
            (vid, str(resolve(term, term_env)))
            for vid, (term, term_env) in env._bindings.items()
        )
        built[id(head_args), tuple(bindings)] += 1
        return instantiate_head(head_args, env)

    monkeypatch.setattr(ordered, "instantiate_head", recording)
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 5), (5, 0)]
    session = Session()
    session.consult_string(
        "".join(f"e({a}, {b}).\n" for a, b in edges) + """
        module nl.
        export t(bf).
        @ordered_search.
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), t(Z, Y).
        end_module.
        """
    )
    before = session.stats.snapshot()
    assert len(session.query("t(0, Y)").all()) == 6
    assert session.stats.iterations - before["iterations"] > 2
    assert len(built) > 36  # more joins than answers: duplicates were derived
    assert set(built.values()) == {1}
    assert sum(built.values()) == session.stats.inferences - before["inferences"]


def test_a_later_pass_reaching_below_its_scc_root_merges_the_sccs():
    """``dn(2, _)`` is the root of an SCC after its first pass (it reached
    only itself); its second pass calls ``up(1, _)``, which is open below it.
    It must not complete before ``up(1, _)`` does."""
    program = """
    g(1, 2). e(2, 3). e(3, 4). k(3, 1). m(4, 9). m(9, 7).
    module t.
    export up(bf).
    %s
    up(X, Y) :- g(X, Z), dn(Z, W), m(W, Y).
    dn(X, Y) :- dn(X, Z), k(Z, U), up(U, Y).
    dn(X, Y) :- e(X, Y).
    dn(X, Y) :- dn(X, Z), e(Z, Y).
    end_module.
    """
    answers = {}
    for flag in ("@no_rewriting.", "@ordered_search."):
        session = Session()
        session.consult_string(program % flag)
        answers[flag] = sorted(a["Y"] for a in session.query("up(1, Y)"))
    assert answers["@ordered_search."] == answers["@no_rewriting."] == [7, 9]
