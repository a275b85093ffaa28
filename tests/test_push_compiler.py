"""Property tests for the push compiler and term interning (ISSUE 9).

Two families:

* **agreement** — hypothesis-generated ground-Datalog programs (biased to
  the compilable class, with recursion, comparisons, arithmetic and
  negation sprinkled in) must produce identical answers under the
  interpreter and the push backend, both as a module flag and as the
  session-wide default;
* **interning** — :class:`repro.terms.hashcons.InternTable` must agree
  *exactly* with relation-level duplicate elimination: two primitives get
  the same dense id iff a :class:`HashRelation` would treat their tuples
  as duplicates.  That pins the tricky cases — ``-0.0``/``0.0`` collapse,
  ``Int(0)`` vs ``Double(0.0)``, ``Str("a")`` vs ``Atom("a")``, BigNum
  vs Int, and NaN's same-object/distinct-object dict semantics.

The fallback-visibility tests (satellite: silent fallback is a bug
magnet) assert that a known-uncompilable rule reports its reason through
``CompileStats``, ``EXPLAIN``, and the ``compile.fallbacks`` counter.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Session
from repro.relations import HashRelation, Tuple
from repro.terms import Atom, BigNum, Double, Int, Str
from repro.terms.hashcons import InternTable

# ---------------------------------------------------------------------------
# interning: dense ids must match relation dedup exactly
# ---------------------------------------------------------------------------

_PRIMITIVES = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20).map(Int),
    st.floats(allow_nan=True, allow_infinity=True).map(Double),
    st.text(max_size=5).map(Str),
    st.text(alphabet="abcxyz", min_size=1, max_size=4).map(Atom),
    st.integers(min_value=10**15, max_value=10**25).map(BigNum),
)


@given(_PRIMITIVES, _PRIMITIVES)
@settings(max_examples=300, deadline=None)
def test_interning_matches_relation_dedup(x, y):
    table = InternTable()
    same_id = table.intern(x) == table.intern(y)
    relation = HashRelation("t", 1)
    assert relation.insert(Tuple((x,)))
    duplicate = not relation.insert(Tuple((y,)))
    assert same_id == duplicate, (
        f"intern says same={same_id} but relation says duplicate={duplicate} "
        f"for {x!r} vs {y!r}"
    )


@given(_PRIMITIVES)
@settings(max_examples=200, deadline=None)
def test_interning_round_trips(x):
    table = InternTable()
    ident = table.intern(x)
    back = table.args[ident]
    assert back.ground_key() == x.ground_key()
    # re-interning the recovered arg lands on the same id
    assert table.intern(back) == ident


def test_interning_edge_cases():
    table = InternTable()
    # -0.0 and 0.0 collapse (Double.__eq__ does too)
    assert table.intern(Double(-0.0)) == table.intern(Double(0.0))
    # Int(0) and Double(0.0) stay distinct (different kinds)
    assert table.intern(Int(0)) != table.intern(Double(0.0))
    # Str("a") and Atom("a") stay distinct
    assert table.intern(Str("a")) != table.intern(Atom("a"))
    # BigNum and Int with the same value collapse (both kind "int")
    assert table.intern(BigNum(10**30)) == table.intern(Int(10**30))
    # NaN: the same float object interns to one id (dict identity
    # semantics), two distinct NaN objects to two — exactly like relation
    # dedup, which the matching property test pins down
    nan = float("nan")
    assert table.intern(Double(nan)) == table.intern(Double(nan))
    assert table.intern(Double(float("nan"))) != table.intern(
        Double(float("nan"))
    )
    # computed-number interning agrees with Arg interning
    assert table.intern_num(7) == table.intern(Int(7))
    assert table.intern_num(2.5) == table.intern(Double(2.5))
    assert table.intern_num(7) != table.intern_num(7.0)


# ---------------------------------------------------------------------------
# agreement: push vs interpreted on random ground Datalog
# ---------------------------------------------------------------------------


@st.composite
def _datalog_case(draw):
    domain = list(range(1, draw(st.integers(min_value=3, max_value=6)) + 1))
    pair = st.tuples(st.sampled_from(domain), st.sampled_from(domain))
    facts = {
        pred: draw(st.sets(pair, min_size=2, max_size=8))
        for pred in ("b0", "b1")
    }
    n_derived = draw(st.integers(min_value=1, max_value=3))
    rules = []
    for level in range(n_derived):
        pred = f"d{level}"
        sources = ["b0", "b1"] + [f"d{i}" for i in range(level)]
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            shape = draw(
                st.sampled_from(
                    ["copy", "swap", "chain", "guard", "incr", "recursive",
                     "negation"]
                )
            )
            src = draw(st.sampled_from(sources))
            src2 = draw(st.sampled_from(sources))
            if shape == "copy":
                body = f"{src}(X, Y)"
            elif shape == "swap":
                body = f"{src}(Y, X)"
            elif shape == "chain":
                body = f"{src}(X, Z), {src2}(Z, Y)"
            elif shape == "guard":
                body = f"{src}(X, Y), X < Y"
            elif shape == "incr":
                body = f"{src}(X, Z), Y = Z + 1"
            elif shape == "negation":
                # stratified, safe: strictly-lower sources, variables bound
                body = f"{src}(X, Y), not {src2}(X, Y)"
            else:  # recursive
                body = f"{src}(X, Z), {pred}(Z, Y)"
            rules.append(f"{pred}(X, Y) :- {body}.")
    bound_pred = draw(st.integers(min_value=0, max_value=n_derived - 1))
    bound_const = draw(st.sampled_from(domain))
    queries = [
        f"d{n_derived - 1}(X, Y)",
        f"d{bound_pred}({bound_const}, Y)",
    ]
    return facts, rules, queries


def _render(facts, rules, flags):
    lines = []
    for pred, tuples in sorted(facts.items()):
        for a, b in sorted(tuples):
            lines.append(f"{pred}({a}, {b}).")
    lines.append("module gen.")
    if flags:
        lines.append(flags)
    n_derived = len({rule.split("(")[0] for rule in rules})
    for level in range(n_derived):
        lines.append(f"export d{level}(ff, bf).")
    lines.extend(rules)
    lines.append("end_module.")
    return "\n".join(lines) + "\n"


def _answers(program, queries, **session_kwargs):
    session = Session(**session_kwargs)
    session.consult_string(program)
    return {q: sorted(set(session.query(q).tuples())) for q in queries}


@given(_datalog_case())
@settings(max_examples=30, deadline=None)
def test_push_agrees_with_interpreter(case):
    facts, rules, queries = case
    baseline = _answers(_render(facts, rules, ""), queries)
    flagged = _answers(_render(facts, rules, "@compiled(push)."), queries)
    assert flagged == baseline
    session_default = _answers(_render(facts, rules, ""), queries, compiled="push")
    assert session_default == baseline


# ---------------------------------------------------------------------------
# fallback visibility: uncompilable rules must say why
# ---------------------------------------------------------------------------

_FALLBACK_PROGRAM = """
b(1, 2). b(2, 3). b(3, 1).
module fb.
@compiled(push).
export d(ff).
d(X, Y) :- b(X, Y).
d(X, Y) :- b(Y, X), not b(X, Y).
end_module.
"""


def test_fallback_reason_in_stats_and_explain():
    session = Session()
    session.consult_string(_FALLBACK_PROGRAM)
    baseline = Session()
    baseline.consult_string(_FALLBACK_PROGRAM.replace("@compiled(push).", ""))
    assert sorted(set(session.query("d(X, Y)").tuples())) == sorted(
        set(baseline.query("d(X, Y)").tuples())
    )

    from repro.compilemod import compile_report

    form = session.modules.compiled_form("fb", "d", "ff")
    report = compile_report(form, session.ctx.is_builtin)
    assert report.rules_compiled >= 1
    assert report.rules_interpreted >= 1
    assert any("negation" in reason for reason in report.fallbacks), (
        report.fallbacks
    )

    text = session.explain("d(X, Y)")
    assert "compiled to Python (push)" in text
    assert "fallback" in text and "negation" in text


def test_fallback_counter_under_profiler():
    session = Session()
    session.consult_string(_FALLBACK_PROGRAM)
    with session.profile(trace=False) as prof:
        session.query("d(X, Y)").all()
    registry = prof.profile.registry
    assert "compile.fallbacks" in registry
    counter = registry.counter(
        "compile.fallbacks",
        "rules interpreted under a compiled backend, by reason",
        ("reason",),
    )
    collected = counter.collect()
    assert any("negation" in labels[0] for labels in collected), collected
    assert sum(collected.values()) >= 1


def test_module_level_fallback_reports_save_module():
    program = _FALLBACK_PROGRAM.replace(
        "@compiled(push).", "@compiled(push).\n@save_module."
    )
    session = Session()
    session.consult_string(program)
    answers = sorted(set(session.query("d(X, Y)").tuples()))
    assert answers  # interpreted evaluation still works

    from repro.compilemod import compile_report

    form = session.modules.compiled_form("fb", "d", "ff")
    report = compile_report(form, session.ctx.is_builtin)
    assert report.rules_compiled == 0
    assert any("save_module" in reason for reason in report.fallbacks)


_ORDERED_SEARCH = {
    # the annotation
    "flag": (
        "e(1, 2). e(2, 3). e(3, 4).\nmodule m.\nexport p(bf).\n@compiled.\n"
        "@ordered_search.\np(X, Y) :- e(X, Y).\n"
        "p(X, Y) :- e(X, Z), p(Z, Y).\nend_module.\n",
        {}, ("m", "p", "bf"), "p(1, Y)", 2,
    ),
    # the optimizer's fallback: magic breaks stratification
    "fallback": (
        "move(1, 2). move(2, 3).\nmodule g.\nexport win(b).\n"
        "win(X) :- move(X, Y), not win(Y).\nend_module.\n",
        {"compiled": "push"}, ("g", "win", "b"), "win(2)", 1,
    ),
}


@pytest.mark.parametrize("case", sorted(_ORDERED_SEARCH))
def test_ordered_search_is_a_recorded_module_level_fallback(case):
    """Ordered Search runs the module interpreted; the push verdict says so
    in EXPLAIN, the ``compile.fallbacks`` counter and the instance's stats
    instead of claiming every rule compiled."""
    program, kwargs, (module, pred, form), query, rules = _ORDERED_SEARCH[case]
    reason = "the module uses ordered search"
    session = Session(**kwargs)
    session.consult_string(program)
    text = session.explain(query)
    assert f"compile (push): 0 rule(s) compiled, {rules} interpreted" in text
    assert f"fallback x{rules}: {reason}" in text
    assert f"push: no — {reason}" in text
    with session.profile(trace=False) as prof:
        answers = session.query(query).tuples()
    counter = prof.profile.registry.counter(
        "compile.fallbacks",
        "rules interpreted under a compiled backend, by reason",
        ("reason",),
    )
    assert counter.collect() == {(reason,): rules}
    stats = session.modules.instance_for(module, pred, form).compiler.stats
    assert stats.fallbacks == {reason: rules} and stats.rules_compiled == 0
    interpreted = Session()
    interpreted.consult_string(program.replace("@compiled.\n", ""))
    assert answers == interpreted.query(query).tuples()


def test_bare_compiled_flag_reports_push_fallbacks():
    program = _FALLBACK_PROGRAM.replace("@compiled(push).", "@compiled.")
    session = Session()
    session.consult_string(program)
    session.query("d(X, Y)").all()

    from repro.compilemod import compile_report

    form = session.modules.compiled_form("fb", "d", "ff")
    report = compile_report(form, session.ctx.is_builtin)
    assert any("negation" in reason for reason in report.fallbacks)
    assert "compiled to Python (push)" in session.explain("d(X, Y)")


def test_unknown_backend_rejected():
    session = Session()
    session.consult_string(
        "b(1, 2).\nmodule bad.\n@compiled(jit).\nexport d(ff).\n"
        "d(X, Y) :- b(X, Y).\nend_module.\n"
    )
    with pytest.raises(Exception, match="unknown compiled backend"):
        session.query("d(X, Y)").all()


def test_push_handles_floats_and_arithmetic():
    program = """
w(1, 2). w(2, 3).
module fl.
@compiled(push).
export c(ff).
c(X, H) :- w(X, Y), H = Y / 2.
end_module.
"""
    session = Session()
    session.consult_string(program)
    baseline = Session()
    baseline.consult_string(program.replace("@compiled(push).", ""))
    got = sorted(set(session.query("c(X, H)").tuples()))
    expected = sorted(set(baseline.query("c(X, H)").tuples()))
    assert got == expected
    assert any(isinstance(value, float) for _, value in got)
