"""A query form's call skeleton (``ModuleManager.call``): the instance a
plain call checks out, resets and gives back, instead of building one per
call; and the answers its pushed answer SCC hands to the cursor instead of
flushing them into the answer relation.

Every test here fails if a reset leaks state from one call into the next:
answers are compared with a session that evaluates each query cold.
"""

import re

import pytest

from repro import Session
from repro.errors import ResourceLimitError
from repro.modules.manager import ModuleManager

TC = """
module tc.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

#: the paper's Figure 3
SHORTEST_PATH = """
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

#: two branches of a DAG that share a tail: 0 -> 1..5 -> 20.., 10 -> 11..13
EDGES = (
    "".join(f"edge({i}, {i + 1}).\n" for i in range(5))
    + "edge(5, 20). edge(20, 21). edge(10, 11). edge(11, 12). edge(12, 13).\n"
    + "edge(13, 20).\n"
)

WEIGHTED = (
    "edge(1, 2, 4). edge(1, 3, 1). edge(3, 2, 1). edge(2, 4, 1).\n"
    "edge(3, 4, 7). edge(4, 5, 2). edge(6, 4, 1). edge(6, 5, 9).\n"
)


def _session(program, **kwargs):
    session = Session(**kwargs)
    session.consult_string(program)
    return session


def _rows(session, query):
    return sorted(session.query(query).tuples(), key=str)


def _cold(program, query, **kwargs):
    """The query's answers from a session that evaluates it first."""
    return _rows(_session(program, **kwargs), query)


@pytest.fixture
def builds(monkeypatch):
    """``builds(session)``: every instance ``instance_for`` built for the
    session, in order."""
    built = []
    honest = ModuleManager.instance_for

    def recording(self, module_name, pred, form):
        instance = honest(self, module_name, pred, form)
        built.append((self, instance))
        return instance

    monkeypatch.setattr(ModuleManager, "instance_for", recording)
    return lambda session: [
        instance for manager, instance in built if manager is session.modules
    ]


@pytest.mark.parametrize("compiled", ["push", None])
def test_alternating_keys_reuse_one_skeleton(compiled, builds):
    session = _session(EDGES + TC, compiled=compiled)
    oracle = EDGES + TC.replace("module tc.", "module tc.\n@no_rewriting.")
    expected = {
        key: _cold(oracle, f"path({key}, Y)", compiled=None) for key in (0, 10)
    }
    assert expected[0] != expected[10]
    for _ in range(50):
        for key in (0, 10):
            assert _rows(session, f"path({key}, Y)") == expected[key]
    assert len(builds(session)) == 1
    (skeleton,) = session.modules._idle.values()
    assert skeleton is builds(session)[0]


#: shortest path costs under one aggregate selection, evaluated semi-naively
MIN_COST = """
module sp.
export sp(bff).
@aggregate_selection sp(X, Y, C) (X, Y) min(C).
sp(X, Y, C) :- edge(X, Y, C).
sp(X, Y, C) :- sp(X, Z, C1), edge(Z, Y, C2), C = C1 + C2.
end_module.
"""


def _alternate_with_updates(module, query, keys, builds):
    """Alternate ``keys`` while an edge the answers depend on comes and
    goes: state a reset leaves behind (a selection's best costs, a done
    subgoal) answers for the old edges."""
    edges = set(re.findall(r"edge\([^)]*\)\.", WEIGHTED))
    session = _session(WEIGHTED + module)
    for step in range(12):
        key = keys[step % len(keys)]
        if step % 3 == 1:
            edges ^= {"edge(3, 2, 1)."}
            if "edge(3, 2, 1)." in edges:
                session.insert("edge", 3, 2, 1)
            else:
                session.delete("edge", 3, 2, 1)
        expected = _cold(" ".join(sorted(edges)) + module, query % key)
        assert _rows(session, query % key) == expected
    assert len(builds(session)) == 1


def test_alternating_keys_reset_aggregate_selections(builds):
    session = _session(WEIGHTED + MIN_COST)
    assert not session.modules.compiled_form("sp", "sp", "bff").ordered_search
    _alternate_with_updates(MIN_COST, "sp(%d, Y, C)", (1, 6, 3), builds)


def test_figure_3_resets_its_ordered_search_state(builds):
    session = _session(WEIGHTED + SHORTEST_PATH)
    assert session.modules.compiled_form("s_p", "s_p", "bfff").ordered_search
    _alternate_with_updates(SHORTEST_PATH, "s_p(%d, Y, P, C)", (1, 6, 3), builds)


def test_an_answer_scc_seeded_by_an_interpreted_rule_flushes(builds):
    """Its relation holds what the interpreted rule derived, so the run
    does not hand the cursor its rows: the cursor reads the relation."""
    program = EDGES + "link(3, f(7)). link(11, f(8)).\n" + TC.replace(
        "end_module.", "path(X, Y) :- link(X, f(Y)).\nend_module."
    )
    session = _session(program)
    assert session.modules.compiled_form("tc", "path", "bf").rewritten.answer_positions
    for _ in range(3):
        for key in (0, 10):
            query = f"path({key}, Y)"
            assert _rows(session, query) == _cold(program, query, compiled=None)
    assert len(builds(session)) == 1


def test_a_constant_in_a_free_position_still_selects():
    session = _session(EDGES + TC)
    for _ in range(2):
        assert _rows(session, "path(0, 20)") == [(0, 20)]
        assert _rows(session, "path(0, 12)") == []


@pytest.mark.parametrize("compiled", ["push", None])
def test_a_second_open_cursor_gets_its_own_instance(compiled, builds):
    session = _session(EDGES + TC, compiled=compiled)
    session.query("path(0, Y)").all()  # the skeleton exists and is idle
    first = session.query("path(0, Y)")
    assert first.get_next() is not None  # checks the skeleton out
    second = _rows(session, "path(10, Y)")
    assert second == _cold(EDGES + TC, "path(10, Y)")
    assert len(builds(session)) == 2  # the second call could not have the skeleton
    assert sorted(a["Y"] for a in first) == sorted(  # the cached one too
        y for _, y in _cold(EDGES + TC, "path(0, Y)")
    )
    assert len(session.modules._idle) == 1
    assert _rows(session, "path(10, Y)") == second
    assert len(builds(session)) == 2


@pytest.mark.parametrize("compiled", ["push", None])
def test_an_abandoned_cursor_gives_the_skeleton_back(compiled, builds):
    session = _session(EDGES + TC, compiled=compiled)
    cursor = session.query("path(0, Y)")
    assert cursor.get_next() is not None
    assert not session.modules._idle  # checked out while the cursor is open
    cursor.close()
    assert len(session.modules._idle) == 1
    assert _rows(session, "path(10, Y)") == _cold(EDGES + TC, "path(10, Y)")
    assert _rows(session, "path(0, Y)") == _cold(EDGES + TC, "path(0, Y)")
    assert len(builds(session)) == 1


@pytest.mark.parametrize("compiled", ["push", None])
def test_a_limit_trip_leaves_the_next_call_right(compiled, builds):
    chain = "".join(f"edge({i}, {i + 1}).\n" for i in range(300))
    session = _session(chain + TC, compiled=compiled)
    with pytest.raises(ResourceLimitError):
        session.query("path(0, Y)").all(max_tuples=20)
    assert _rows(session, "path(250, Y)") == [
        (250, y) for y in range(251, 301)
    ]
    assert len(session.query("path(0, Y)").all()) == 300
    assert len(builds(session)) == 1


def test_consumers_that_outlive_the_call_never_get_the_skeleton():
    session = _session(EDGES + TC, memo=True)
    session.query("path(0, Y)").all()
    (entry,) = session.memo._entries.values()
    view = session.subscribe("path(10, Y)", lambda deltas: None)
    saved = _session(EDGES + TC.replace("module tc.", "module tc.\n@save_module."))
    saved.query("path(0, Y)").all()
    (retained,) = saved.modules._saved.values()
    for instance in (entry.instance, view.instance, retained):
        assert instance._home is None
    assert not session.modules._idle and not saved.modules._idle
    # a private instance's answer SCC flushes: its consumer reads the
    # answer relation after the call
    rewritten = entry.instance.compiled.rewritten
    answer = (rewritten.answer_pred, rewritten.answer_arity)
    assert len(entry.instance.scope.local[answer]) == 7


def test_a_skeleton_hands_its_answers_over_unflushed():
    session = _session(EDGES + TC)
    answers = session.query("path(0, Y)").all()
    (skeleton,) = session.modules._idle.values()
    rewritten = skeleton.compiled.rewritten
    answer = (rewritten.answer_pred, rewritten.answer_arity)
    assert len(skeleton.scope.local[answer]) == 0
    assert sorted(a["Y"] for a in answers) == [1, 2, 3, 4, 5, 20, 21]


def test_loading_a_module_that_exports_a_read_rebuilds_the_skeleton(builds):
    session = _session(EDGES + TC)
    session.query("path(0, Y)").all()
    session.consult_string(
        "module e.\nexport edge(ff).\nedge(0, 99).\nend_module.\n"
    )
    assert _rows(session, "path(0, Y)") == [(0, 99)]
    built = [i.compiled.module_name for i in builds(session)]
    assert built == ["tc", "tc", "e"]


def _no_rewriting(module):
    return module.replace("end_module.", "@no_rewriting.\nend_module.")


@pytest.mark.parametrize("module, query, ordered", [
    (SHORTEST_PATH, "s_p(%d, Y, P, C)", True),
    (MIN_COST, "sp(%d, Y, C)", False),
])
def test_a_skeleton_with_search_state_alternates_with_updates(
    module, query, ordered, builds
):
    """Alternating keys while an edge comes and goes, against a cold
    interpreter that does not rewrite: one skeleton serves every read, its
    Ordered Search state or aggregate constraints fresh at each checkout."""
    edges = set(re.findall(r"edge\([^)]*\)\.", WEIGHTED))
    session = _session(WEIGHTED + module)
    for step in range(12):
        key = (1, 6, 3)[step % 3]
        if step % 3 == 1:
            edges ^= {"edge(3, 2, 1)."}
            if "edge(3, 2, 1)." in edges:
                session.insert("edge", 3, 2, 1)
            else:
                session.delete("edge", 3, 2, 1)
        program = " ".join(sorted(edges)) + _no_rewriting(module)
        expected = _cold(program, query % key, compiled=None)
        assert _rows(session, query % key) == expected
        (skeleton,) = session.modules._idle.values()
        assert (skeleton._ordered is not None) == ordered
    assert len(builds(session)) == 1


def test_every_read_on_a_skeleton_pushes_both_sccs(monkeypatch):
    """Count the push runs themselves (None: not refused), not the
    evaluators built: both SCCs of every read push, none falls back."""
    from repro.compilemod.push import PushSCCEvaluator

    runs = []
    honest = PushSCCEvaluator._run_push

    def run(self):
        runs.append(honest(self))
        return runs[-1]

    monkeypatch.setattr(PushSCCEvaluator, "_run_push", run)
    session = _session(EDGES + TC)
    for key in (0, 10, 0, 10):
        assert _rows(session, f"path({key}, Y)") == _cold(
            EDGES + _no_rewriting(TC), f"path({key}, Y)", compiled=None
        )
    assert runs == [None] * 8
