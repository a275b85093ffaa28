"""What one inference costs, in counts (never timings): the ground-fact fast
path through the join kernel must stay on.

Matching a ground stored fact against a flat body literal is positional
(:func:`repro.terms.unify.unify_fact`): no general ``unify`` call and no
binding environment per candidate.  A change that sends the common case back
through the unifier still gives right answers, so only a count shows it."""

import sys
from collections import Counter

import pytest

import repro.builtins.lists as lists
import repro.eval.join as join
import repro.eval.ordered as ordered
from repro import Session
from repro.relations import Tuple
from repro.terms import BindEnv, Int, Var

# the perf ledger's TC_MODULE over its layered DAG, as the maintenance-cost
# test spells them
from tests.test_maintenance_cost import LAYERS, TC, WIDTH, facts, layered_dag
from tests.test_ordered_search_cost import SP

_DONE = object()


def session(extra_facts="", annotation=""):
    made = Session()
    made.consult_string(
        facts(layered_dag())
        + extra_facts
        + TC.replace("export path(bf).", "export path(bf).\n" + annotation)
    )
    return made


@pytest.fixture
def counts(monkeypatch):
    """Calls to the general unifier made from ``unify_fact`` and binding
    environments created, while counting is on."""
    seen = {"unify": 0, "bindenv": 0}
    # `repro.terms.unify` the attribute is the function; the module is here
    unify_module = sys.modules["repro.terms.unify"]
    unify, init = unify_module.unify, BindEnv.__init__

    def counted_unify(*args, **kwargs):
        seen["unify"] += 1
        return unify(*args, **kwargs)

    def counted_init(self):
        seen["bindenv"] += 1
        init(self)

    monkeypatch.setattr(unify_module, "unify", counted_unify)
    monkeypatch.setattr(BindEnv, "__init__", counted_init)
    return seen


def test_ground_read_never_reaches_the_general_unifier(counts):
    made = session()
    made.query("path(0, Y)").all()  # compile the form
    counts["unify"] = counts["bindenv"] = 0
    before = made.stats.snapshot()
    answers = made.query("path(0, Y)").all()
    spent = {
        name: value - before[name]
        for name, value in made.stats.snapshot().items()
    }
    assert len(answers) == 30
    assert spent["inferences"] > 10 * spent["rule_applications"]
    assert counts["unify"] == 0
    # one environment per rule application and one for the answer loop —
    # none per candidate fact
    assert counts["bindenv"] <= spent["rule_applications"] + 1


def test_a_non_ground_fact_takes_the_general_path_and_answers_the_same(counts):
    """``edge(X, 7)``: every node, the last layer's included, has an edge
    to 7.  Its variable is the general unifier's business, and the answers
    are those of the unrewritten program."""
    source = (LAYERS - 1) * WIDTH  # no ground edge leaves the last layer
    answers = {}
    for annotation in ("", "@no_rewriting."):
        made = session("edge(X, 7).\n", annotation)
        answers[annotation] = {
            str(answer["Y"]) for answer in made.query(f"path({source}, Y)").all()
        }
    assert counts["unify"] > 0
    assert "7" in answers[""] and len(answers[""]) == 31
    assert answers[""] == answers["@no_rewriting."]



# -- structured terms: the paper's Figure 3 ------------------------------------


def figure_3_session():
    made = Session()
    made.consult_string(
        "".join(
            f"edge({a}, {b}, {1 + (a + b) % 3}).\n"
            for a, b in layered_dag(layers=4)
        )
        + SP
    )
    return made


def test_figure_3_read_keeps_path_terms_on_the_value_path(counts, monkeypatch):
    """A path is a ground list.  Matching one against a stored fact, handing
    it to ``append/3`` and putting it in a head are value operations: no
    general ``unify`` from ``unify_fact``, no ``Var`` and at most one
    ``unify`` per ``append/3`` call, every head built by ``Tuple.ground``."""
    made = figure_3_session()
    seen = Counter()
    within = set()  # "append" / "head" while one of those is running
    var_init, tuple_init = Var.__init__, Tuple.__init__
    list_unify, head = lists.unify, join.instantiate_head
    append = made.ctx.builtins.lookup("append", 3).impl

    def counted_var(self, *args, **kwargs):
        seen["append_vars"] += "append" in within
        var_init(self, *args, **kwargs)

    def counted_tuple(self, args):
        seen["walked_heads"] += "head" in within
        tuple_init(self, args)

    def counted_list_unify(*args, **kwargs):
        seen["append_unify"] += "append" in within
        return list_unify(*args, **kwargs)

    def counted_head(head_args, env):
        seen["heads"] += 1
        within.add("head")
        try:
            return head(head_args, env)
        finally:
            within.discard("head")

    def counted_append(args, env, trail):
        seen["append"] += 1
        solutions = append(args, env, trail)
        while True:
            within.add("append")
            try:
                step = next(solutions, _DONE)
            finally:
                within.discard("append")
            if step is _DONE:
                return
            yield step

    monkeypatch.setattr(Var, "__init__", counted_var)
    monkeypatch.setattr(Tuple, "__init__", counted_tuple)
    monkeypatch.setattr(lists, "unify", counted_list_unify)
    monkeypatch.setattr(join, "instantiate_head", counted_head)
    made.ctx.builtins.register_function("append", 3, counted_append, replace=True)
    counts["unify"] = 0
    answers = made.query("s_p(0, Y, P, C)").all()
    assert len(answers) > 10
    assert seen["append"] > 10
    assert counts["unify"] == 0
    assert seen["append_vars"] == 0
    assert seen["append_unify"] <= seen["append"]
    assert seen["heads"] > seen["append"]
    assert seen["walked_heads"] == 0


def test_prepare_binds_pattern_variables_to_the_head(monkeypatch):
    """``p(X, Y, P, C)`` prepared for the call ``p(0, Y', P', C')``: the
    call's fresh variables only name the head's arguments, so the env holds
    ``X = 0`` and nothing else — no variable bound to a variable that every
    body literal binding ``Y``, ``P`` or ``C`` would have to follow."""
    prepared = {}
    prepare = ordered.OrderedSearchEvaluator._prepare

    def recorded(self, subgoal):
        rules = prepare(self, subgoal)
        prepared[(subgoal.pred, str(subgoal.pattern[0]))] = rules
        return rules

    monkeypatch.setattr(ordered.OrderedSearchEvaluator, "_prepare", recorded)
    figure_3_session().query("s_p(0, Y, P, C)").all()
    rules = prepared[("p", "0")]
    assert len(rules) == 2
    for rule in rules:
        bound = [term for term, _ in rule.env._bindings.values()]
        assert bound == [Int(0)]
        assert rule.env.lookup(rule.head_args[0])[0] == Int(0)
