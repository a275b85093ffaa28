"""The push backend's session-resident state (``compilemod.push.PushState``)
and the push/interpreter agreements the default backend relies on.

A pushed run reads every base relation from the session's interned copy:
inserts are the relation's tuples numbered after the copy's newest, deletes
arrive through ``EvalContext.notify_delete``, and a copy that, with those
inserts, does not count the relation's tuples is rebuilt.  Right answers do not show whether a read re-interned
the database — counts of ``InternTable.intern`` calls do.
"""

import gc
import weakref

import pytest

from repro import Session
from repro.compilemod.push import ARITH_VALUE
from repro.errors import EvaluationError
from repro.relations import Tuple
from repro.terms import Functor, Int
from repro.terms.hashcons import InternTable

TC = """
module tc.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""


def _chain(n):
    return "".join(f"edge({i}, {i + 1}).\n" for i in range(n))


def _session(program, **kwargs):
    session = Session(**kwargs)
    session.consult_string(program)
    return session


def _reach(session, key):
    return sorted(a["Y"] for a in session.query(f"path({key}, Y)"))


@pytest.fixture
def intern_calls(monkeypatch):
    calls = []
    honest = InternTable.intern

    def counting(self, arg):
        calls.append(arg)
        return honest(self, arg)

    monkeypatch.setattr(InternTable, "intern", counting)
    return calls


def test_absorbing_an_insert_interns_only_the_new_tuple(intern_calls):
    session = _session(_chain(200) + TC)
    _reach(session, 190)  # builds the resident copy of edge
    assert len(intern_calls) >= 400  # every edge value, once
    del intern_calls[:]
    _reach(session, 190)
    unchanged = len(intern_calls)  # the run's own seeds and facts
    assert unchanged < 100
    del intern_calls[:]
    session.insert("edge", 500, 501)
    assert _reach(session, 190) == list(range(191, 201))
    assert len(intern_calls) <= unchanged + 2  # the new edge's two values
    del intern_calls[:]
    session.insert("edge", 200, 201)
    assert _reach(session, 190) == list(range(191, 202))


def test_deletes_arrive_through_the_commit_fan_out(intern_calls):
    session = _session(_chain(50) + TC)
    _reach(session, 40)
    resident = session.ctx.push._bases[("edge", 2)]
    del intern_calls[:]
    session.delete("edge", 45, 46)
    assert _reach(session, 40) == list(range(41, 46))
    session.insert("edge", 45, 46)  # delete, then re-insert
    assert _reach(session, 40) == list(range(41, 51))
    session.insert("edge", 46, 60)  # insert, then delete before a read
    session.delete("edge", 46, 60)
    assert _reach(session, 40) == list(range(41, 51))
    assert session.ctx.push._bases[("edge", 2)] is resident
    assert len(intern_calls) < 100  # one re-intern of edge alone is 100


def test_a_missed_notification_rebuilds_the_copy():
    session = _session(_chain(30) + TC)
    _reach(session, 0)
    resident = session.ctx.push._bases[("edge", 2)]
    # a delete straight on the relation: no commit fan-out reaches push
    assert session.relation("edge", 2).delete(Tuple((Int(5), Int(6))))
    assert _reach(session, 0) == [1, 2, 3, 4, 5]
    assert session.ctx.push._bases[("edge", 2)] is not resident


def test_a_missed_delete_hidden_by_an_insert_still_rebuilds():
    session = _session(_chain(30) + TC)
    _reach(session, 0)
    resident = session.ctx.push._bases[("edge", 2)]
    # the same size as before, but not the same tuples
    assert session.relation("edge", 2).delete(Tuple((Int(5), Int(6))))
    session.insert("edge", 40, 41)
    assert _reach(session, 0) == [1, 2, 3, 4, 5]
    assert session.ctx.push._bases[("edge", 2)] is not resident
    interpreted = _session(_chain(30) + TC, compiled=None)
    interpreted.relation("edge", 2).delete(Tuple((Int(5), Int(6))))
    interpreted.insert("edge", 40, 41)
    assert _reach(session, 40) == _reach(interpreted, 40) == [41]


def test_a_repeated_read_interns_no_context_fact(intern_calls):
    """The factored form's first SCC computes ``ctx_path`` and hands its
    interned rows to the second (``fans_path``), which used to intern all
    of them again: a read on an unchanged database now interns only the
    call's seed."""
    session = _session(_chain(200) + TC)
    assert _reach(session, 100) == list(range(101, 201))
    del intern_calls[:]
    assert _reach(session, 100) == list(range(101, 201))
    assert intern_calls == [Int(100)]  # 102 with the context re-interned


COMPUTED = """
p(1). p(2). p(3). s(102). s(103). s(104).
module m.
export r(f).
q(Y) :- p(X), Y = X + 100.
r(Y) :- q(Y), s(Y).
end_module.
"""


def test_computed_numbers_are_not_handed_on(intern_calls):
    """An SCC that interns values of its own (``intern_num``) loses them to
    the truncation when its run ends, so it hands on no rows: the next SCC
    interns ``q`` itself, and answers as the interpreter does."""
    session = _session(COMPUTED)
    del intern_calls[:]
    assert session.query("r(Y)").tuples() == [(102,), (103,)]
    assert Int(101) in intern_calls  # q read back from its relation
    session.insert("p", 4)
    session.delete("s", 102)
    cold = _session(COMPUTED, compiled=None)
    cold.insert("p", 4)
    cold.delete("s", 102)
    assert sorted(session.query("r(Y)").tuples()) == \
        sorted(cold.query("r(Y)").tuples()) == [(103,), (104,)]


def test_rows_that_took_in_new_values_go_no_further():
    """``p``'s rows are handed on after its pushed once rule; its
    interpreted recursive rule then adds ``g(2)`` and ``g(3)``, which the
    ``r`` SCC interns as it takes the rows — ids its run's truncation
    kills.  The rows must not reach the ``t`` SCC, whose base ``s`` reuses
    those ids."""
    program = (
        "q(1, 2). q(2, 3). s(z).\nmodule m.\nexport t(f).\n"
        "p(X) :- q(X, W).\np(Y) :- p(X), q(X, Z), Y = g(Z).\n"
        "r(X) :- p(X).\nt(X) :- p(X), r(X), s(z).\nend_module.\n"
    )
    interpreted, pushed = _both(program, "t(X)")
    assert interpreted == pushed == [("1",), ("2",), ("g(2)",), ("g(3)",)]


SAVED = TC.replace("export path(bf).", "export path(bf).\n@save_module.")


def _with_live_views():
    session = _session(_chain(20) + TC)
    views = [
        session.subscribe("path(100, Y)", lambda deltas: None),
        session.subscribe("edge(X, Y)", lambda deltas: None),
    ]
    return session, views


@pytest.mark.parametrize("make", [
    pytest.param(lambda: (_session(_chain(20) + TC), []), id="push"),
    pytest.param(
        lambda: (_session(_chain(20) + TC, memo=True), []), id="memo"
    ),
    pytest.param(_with_live_views, id="live"),
    pytest.param(
        lambda: (_session(_chain(20) + SAVED, compiled=None), []),
        id="save_module",
    ),
])
def test_reads_leave_the_base_segments_alone(make):
    """Every reader of a base relation it does not own — push's resident
    copy, a memo entry, live views, save-module resumption — catches up by
    insertion number and takes no mark, so insert-only traffic with reads
    in between does not split the base into one segment per read."""
    session, views = make()
    relation = session.relation("edge", 2)
    for step in range(50):
        session.insert("edge", 100 + step, 101 + step)
        assert _reach(session, 100) == list(range(101, 102 + step))
    assert relation.segment_count() == 1
    cold = _session(
        "".join(f"edge({a}, {b}).\n" for a, b in _edges(relation)) + TC,
        compiled=None,
    )
    assert _reach(session, 100) == _reach(cold, 100)
    assert _reach(session, 0) == _reach(cold, 0)
    if views:
        derived, base = (
            sorted(tuple(arg.value for arg in t.args) for t in view.snapshot())
            for view in views
        )
        assert [b for _, b in derived] == _reach(cold, 100)
        assert base == sorted(_edges(cold.relation("edge", 2)))


def _edges(relation):
    return [tuple(arg.value for arg in t.args) for t in relation.scan()]


def test_handed_on_rows_do_not_outlive_their_call():
    """Rows are handed between the SCCs of one call only.  A retained
    instance — a memo entry, repaired by deleting from its relations
    without any fan-out — keeps none once its call is over, and a
    save-module form resumed after a base insert and a memo entry repaired
    after a delete answer as a cold interpreter does."""
    memo = _session(_chain(30) + TC, memo=True)
    saved = _session(_chain(30) + SAVED)
    assert _reach(memo, 10) == _reach(saved, 10) == list(range(11, 31))
    (entry,) = memo.memo._entries.values()
    assert entry.instance._handoff.rows == entry.instance._handoff.held == {}
    for session in (memo, saved):
        session.delete("edge", 20, 21)
        session.insert("edge", 20, 40)
        session.insert("edge", 40, 41)
    cold = _session(_chain(30) + TC, compiled=None)
    cold.delete("edge", 20, 21)
    cold.insert("edge", 20, 40)
    cold.insert("edge", 40, 41)
    for key in (10, 20, 25):
        assert _reach(memo, key) == _reach(saved, key) == _reach(cold, key)
    assert memo.memo.snapshot()["evictions"] == 0
    for entry in memo.memo._entries.values():
        assert entry.instance._handoff.rows == entry.instance._handoff.held == {}


def test_fresh_numbers_do_not_grow_the_table():
    session = _session(
        "edge(1, 2, 5). edge(2, 3, 7). edge(3, 4, 1).\n"
        "module m.\n@eager_eval.\nexport cost(bbf).\n"
        "cost(X, C0, C) :- edge(X, Y, EC), C = C0 + EC.\n"
        "cost(X, C0, C) :- edge(X, Y, EC), C1 = C0 + EC, cost(Y, C1, C).\n"
        "end_module.\n"
    )
    assert [a["C"] for a in session.query("cost(1, 0, C)")] == [5, 12, 13]
    size = len(session.ctx.push.intern)
    for start in range(1, 1000):
        answers = session.query(f"cost(1, {start}, C)").tuples()
        assert len(answers) == 3
    assert len(session.ctx.push.intern) == size


def test_close_releases_the_state():
    session = _session(_chain(10) + TC)
    _reach(session, 0)
    state = weakref.ref(session.ctx.push)
    session.close()
    gc.collect()
    assert session.ctx.push is None and state() is None


def test_two_sessions_never_share_it():
    first = _session(_chain(10) + TC)
    second = _session(_chain(10) + TC)
    _reach(first, 0), _reach(second, 0)
    assert first.ctx.push is not second.ctx.push
    assert first.ctx.push.intern is not second.ctx.push.intern
    first.delete("edge", 3, 4)
    assert _reach(first, 0) == [1, 2, 3]
    assert _reach(second, 0) == list(range(1, 11))


def test_the_interpreter_opt_out_builds_no_state():
    session = _session(_chain(10) + TC, compiled=None)
    assert _reach(session, 0) == list(range(1, 11))
    assert session.ctx.push is None


# ---------------------------------------------------------------------------
# push agrees with the interpreter where it used to raise or differ
# ---------------------------------------------------------------------------


def _both(program, query):
    """The answers (as printed terms), or the error's gist, of the
    interpreter and of push."""
    out = []
    for compiled in (None, "push"):
        session = _session(program, compiled=compiled)
        try:
            out.append(sorted(
                tuple(str(arg) for arg in answer.tuple.args)
                for answer in session.query(query)
            ))
        except EvaluationError as exc:
            out.append("error: " + str(exc).split(" in ")[0].split(":")[0])
    return out


def _module(facts, rules, export="q(f)"):
    return f"{facts}\nmodule m.\nexport {export}.\n{rules}\nend_module.\n"


@pytest.mark.parametrize("facts, rule, expected", [
    # an atom assigned: unified as it stands, not computed
    ("p(-1).", "q(X) :- p(-1), X = yes.", [("yes",)]),
    ("p(1).", "q(Y) :- p(X), Y = X / 0.", "error: division by zero"),
    ("p(yes).", "q(X) :- p(X), X > 1.", "error: type mismatch"),
    # strings and atoms stay apart in guards, and never concatenate
    ('p("a"). p(a). p(b).', 'q(X) :- p(X), X == "a".', [('"a"',)]),
    ('p("a"). p(a). p(b).', "q(X) :- p(X), X != a.", [('"a"',), ("b",)]),
    ('p("a"). p(a).', 'q(X) :- p(X), X < "b".', "error: type mismatch"),
    ('p("a", "b").', "q(Z) :- p(X, Y), Z = X + Y.",
     'error: non-numeric operand "a"'),
    # a computed number unifies with a bound value by kind, as terms do
    ("p(2, 2.0). p(3, 3).", "q(X) :- p(X, Y), Y = X * 1.", [("3",)]),
])
def test_push_answers_or_fails_as_the_interpreter_does(facts, rule, expected):
    interpreted, pushed = _both(_module(facts, rule), rule.split(" :- ")[0])
    assert interpreted == pushed == expected


def _fallbacks(prof):
    return prof.profile.registry.counter(
        "compile.fallbacks",
        "rules interpreted under a compiled backend, by reason",
        ("reason",),
    ).collect()


_SUM = Functor("+", (Int(1), Int(2)))


@pytest.mark.parametrize("rule, expected", [
    # the interpreter evaluates a stored arithmetic term where = or a
    # guard reads it; such a run falls back
    ("q(Y) :- p(X), Y = X + 1.", [("4",)]),
    ("q(Z) :- p(X), Z = X.", [("3",)]),
    ("q(X) :- p(X), X > 1.", [("(1 + 2)",)]),
    ("q(X) :- p(X), X = 3.", [("(1 + 2)",)]),
    # without one, the value is only joined and copied: pushed
    ("q(X) :- p(X).", [("(1 + 2)",)]),
])
def test_a_stored_arithmetic_term_answers_as_the_interpreter_does(
    rule, expected
):
    out = []
    for compiled in (None, "push"):
        session = _session(_module("", rule), compiled=compiled)
        session.insert("p", _SUM)
        with session.profile(trace=False) as prof:
            out.append(sorted(
                tuple(str(arg) for arg in answer.tuple.args)
                for answer in session.query(rule.split(" :- ")[0])
            ))
    assert out == [expected, expected]
    fell_back = (ARITH_VALUE,) in _fallbacks(prof)
    assert fell_back == ("=" in rule or ">" in rule)


def test_calling_a_pipelined_export_is_not_a_full_scan():
    program = (
        "item(1). item(2).\n"
        "module n.\n@pipelining.\nexport twice(bf).\n"
        "twice(X, Y) :- Y = X * 2.\nend_module.\n"
        + _module("", "result(Y) :- item(X), twice(X, Y).", "result(f)")
    )
    interpreted, pushed = _both(program, "result(Y)")
    assert interpreted == pushed == [("2",), ("4",)]


def test_a_non_ground_base_fact_falls_back_for_the_run():
    program = "e(a, X). e(b, c).\n" + TC.replace("edge", "e").replace("path", "p")
    interpreted, pushed = _both(program, "p(a, Y)")
    assert interpreted == pushed and len(pushed) == 1
    session = _session(program)
    with session.profile(trace=False) as prof:
        session.query("p(a, Y)").all()
    assert ("non-ground fact in base relation e/2",) in _fallbacks(prof)
    # once the base is ground again, runs are pushed again
    relation = session.relation("e", 2)
    nonground = next(t for t in relation.all_tuples() if not t.is_ground())
    session.delete("e", *nonground.args)
    assert session.query("p(a, Y)").all() == []
    assert session.query("p(b, Y)").tuples() == [("b", "c")]
    assert ("e", 2) in session.ctx.push._bases
