"""Tests for the compiled evaluation mode (paper Section 2 / benchmark E12):
``@compiled.`` evaluates through the push backend."""

import pytest

from repro import Session
from repro.builtins import default_registry
from repro.compilemod import PushCompiler
from repro.errors import RewriteError
from repro.eval.fixpoint import SCCPlan
from repro.language import parse_module

REGISTRY = default_registry()


def is_builtin(name, arity):
    return REGISTRY.is_builtin(name, arity)


def _compile(source, recursive=frozenset()):
    """Push-compile the one SCC of ``source``; returns (compiler, program
    source)."""
    module = parse_module(source)
    preds = frozenset(rule.head.key for rule in module.rules)
    plan = SCCPlan.build(preds, set(recursive), module.rules, is_builtin)
    compiler = PushCompiler()
    compiler.program_for(plan, is_builtin)
    return compiler, plan.push_program.source


class TestPushClassification:
    def test_flat_rule_compiles(self):
        compiler, source = _compile(
            "module m. p(X, Y) :- e(X, Z), f(Z, Y). end_module."
        )
        assert "for _t2 in _b0:" in source
        assert compiler.stats.rules_compiled == 1

    def test_arithmetic_and_comparison_compile(self):
        compiler, source = _compile(
            "module m. p(X, Y) :- e(X, C), C > 2, Y = C * 10. end_module."
        )
        assert compiler.stats.rules_compiled == 1
        assert "> (2)" in source.replace("((", "(").replace("))", ")")

    def test_functor_argument_falls_back(self):
        compiler, _ = _compile("module m. p(X) :- e(f(X)). end_module.")
        assert compiler.stats.rules_interpreted == 1
        assert any("structured" in reason for reason in compiler.stats.fallbacks)

    def test_negation_falls_back(self):
        compiler, _ = _compile(
            "module m. p(X) :- e(X), not q(X). end_module."
        )
        assert compiler.stats.fallbacks == {"negation": 1}

    def test_aggregation_falls_back(self):
        compiler, _ = _compile(
            "module m. p(X, min(<C>)) :- e(X, C). end_module."
        )
        assert compiler.stats.fallbacks == {"aggregation": 1}


class TestCompiledEvaluation:
    TC = """
    module tc.
    export path(bf).
    @compiled.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    end_module.
    """

    def test_compiled_tc_matches_interpreted(self):
        edges = "".join(f"edge({i}, {i+1}). " for i in range(20))
        compiled_session = Session()
        compiled_session.consult_string(edges + self.TC)
        interpreted_session = Session(compiled=None)
        interpreted_session.consult_string(
            edges + self.TC.replace("@compiled.", "")
        )
        compiled_answers = sorted(
            a["Y"] for a in compiled_session.query("path(3, Y)")
        )
        interpreted_answers = sorted(
            a["Y"] for a in interpreted_session.query("path(3, Y)")
        )
        assert compiled_answers == interpreted_answers
        assert len(compiled_answers) == 17

    def test_compiled_with_arithmetic(self):
        session = Session()
        session.consult_string(
            """
            cost(a, b, 3). cost(b, c, 4).

            module m.
            export total(bbf).
            @compiled.
            total(X, Y, C) :- cost(X, Y, C).
            total(X, Y, C) :- cost(X, Z, C1), total(Z, Y, C2), C = C1 + C2.
            end_module.
            """
        )
        answers = session.query("total(a, c, C)").all()
        assert [a["C"] for a in answers] == [7]

    def test_nonground_fact_falls_back_in_compiled_mode(self):
        session = Session()
        session.consult_string("edge(1, X)." + self.TC)
        assert len(session.query("path(1, Y)").all()) >= 1

    def test_interpreted_mode_handles_the_same_nonground_fact(self):
        session = Session(compiled=None)
        session.consult_string(
            "edge(1, X)." + self.TC.replace("@compiled.", "")
        )
        assert len(session.query("path(1, Y)").all()) >= 1

    def test_compiled_cycle_terminates(self):
        session = Session()
        session.consult_string(
            "edge(1, 2). edge(2, 1)." + self.TC
        )
        assert sorted(a["Y"] for a in session.query("path(1, Y)")) == [1, 2]

    def test_bare_flag_means_push(self):
        session = Session()
        session.consult_string("edge(1, 2)." + self.TC)
        session.query("path(1, Y)").all()
        form = session.modules.compiled_form("tc", "path", "bf")
        assert form.compiled == "push"

    def test_closure_backend_is_unknown(self):
        session = Session()
        session.consult_string(
            "edge(1, 2)." + self.TC.replace("@compiled.", "@compiled(closure).")
        )
        with pytest.raises(RewriteError, match="unknown compiled backend"):
            session.query("path(1, Y)").all()


class TestGeneratedSource:
    """White-box checks on the generated Python (the codegen contract)."""

    def test_constants_become_guards(self):
        _, source = _compile("module m. p(X) :- e(7, X). end_module.")
        # a constant argument keys the batch index the scan probes
        assert "si0.get((consts[0],), ())" in source

    def test_repeated_variable_becomes_equality_guard(self):
        _, source = _compile("module m. p(X) :- e(X, X). end_module.")
        assert "== _t2[1]:" in source

    def test_bound_probe_passed_to_scan(self):
        _, source = _compile(
            "module m. p(X, Y) :- e(X), f(X, Y). end_module."
        )
        # the second scan probes f's index on its bound first argument
        probe_line = [line for line in source.splitlines() if "si0.get" in line][0]
        assert "for _t3 in si0.get((v" in probe_line

    def test_recursive_literals_push_through_the_worklist(self):
        _, source = _compile(
            "module m. p(X, Y) :- e(X, Z), p(Z, Y). end_module.", {("p", 2)}
        )
        assert "while stack:" in source
        assert "stack.append((0, _h))" in source

    def test_stats_track_codegen(self):
        compiler, _ = _compile("module m. p(X) :- e(X). end_module.")
        assert compiler.stats.rules_compiled == 1
        assert compiler.stats.generated_lines > 0
        assert compiler.stats.codegen_seconds > 0
