"""What one inference costs, in counts (never timings): the ground-fact fast
path through the join kernel must stay on.

Matching a ground stored fact against a flat body literal is positional
(:func:`repro.terms.unify.unify_fact`): no general ``unify`` call and no
binding environment per candidate.  A change that sends the common case back
through the unifier still gives right answers, so only a count shows it."""

import sys

import pytest

from repro import Session
from repro.terms import BindEnv

# the perf ledger's TC_MODULE over its layered DAG, as the maintenance-cost
# test spells them
from tests.test_maintenance_cost import LAYERS, TC, WIDTH, facts, layered_dag


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
