"""Tests for the static checker (the §9 'Type Information' gap, filled),
the assertz/retract update builtins (§5.2 side effects), and text-file
dump/consult round-trips (§2)."""

import pytest

from repro import Session
from repro.lint import ProgramChecker, check_source


class TestLintUnknownPredicates:
    def test_typo_detected(self):
        findings = check_source(
            """
            module m.
            export path(bf).
            path(X, Y) :- edgee(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            edge(1, 2).
            """
        )
        codes = [f.code for f in findings]
        assert "unknown-predicate" in codes
        assert any("edgee" in f.message for f in findings)

    def test_known_predicates_from_session(self):
        session = Session()
        session.insert("edge", 1, 2)
        findings = check_source(
            """
            module m.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """,
            session,
        )
        assert not [f for f in findings if f.code == "unknown-predicate"]

    def test_builtins_are_known(self):
        session = Session()
        session.insert("n", 1)
        findings = check_source(
            "module m. export p(f). p(Y) :- n(X), Y = X + 1. end_module.",
            session,
        )
        assert not [f for f in findings if f.code == "unknown-predicate"]

    def test_arity_clash(self):
        findings = check_source(
            """
            module m.
            export p(f).
            p(X) :- edge(X).
            end_module.
            edge(1, 2).
            """
        )
        assert any(f.code == "arity-clash" for f in findings)


class TestLintVariables:
    def test_singleton_flagged(self):
        findings = check_source(
            "module m. export p(f). p(X) :- q(X, Unused). end_module. q(1, 2)."
        )
        assert any(
            f.code == "singleton-variable" and "Unused" in f.message
            for f in findings
        )

    def test_underscore_not_flagged(self):
        findings = check_source(
            "module m. export p(f). p(X) :- q(X, _). end_module. q(1, 2)."
        )
        assert not any(f.code == "singleton-variable" for f in findings)

    def test_unsafe_rule_flagged(self):
        findings = check_source(
            "module m. export p(ff). p(X, Y) :- q(X). end_module. q(1)."
        )
        assert any(f.code == "unsafe-rule" for f in findings)

    def test_unsafe_negation_flagged(self):
        findings = check_source(
            """
            module m.
            export p(f).
            p(X) :- q(X), not r(X, Z).
            end_module.
            q(1). r(1, 2).
            """
        )
        assert any(f.code == "unsafe-negation" for f in findings)

    def test_clean_program_no_findings(self):
        session = Session()
        session.insert("edge", 1, 2)
        findings = check_source(
            """
            module m.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """,
            session,
        )
        assert findings == []


class TestLintTypes:
    def test_type_conflict_detected(self):
        findings = check_source(
            'age(john, 32). age(mary, "thirty").'
        )
        assert any(f.code == "type-conflict" for f in findings)

    def test_consistent_types_pass(self):
        findings = check_source("age(john, 32). age(mary, 30).")
        assert not any(f.code == "type-conflict" for f in findings)


class TestUpdateBuiltins:
    def test_assertz_from_pipelined_module(self):
        session = Session()
        session.consult_string(
            """
            raw(1). raw(2). raw(3).

            module loader.
            export load(f).
            @pipelining.
            load(X) :- raw(X), Y = X * 10, assertz(scaled(Y)).
            end_module.
            """
        )
        session.query("load(X)").all()
        assert sorted(r[0] for r in session.query("scaled(V)").tuples()) == [
            10, 20, 30,
        ]

    def test_retract(self):
        session = Session()
        session.insert("flag", 1)
        session.consult_string(
            """
            module m.
            export clear(b).
            @pipelining.
            clear(X) :- retract(flag(X)).
            end_module.
            """
        )
        assert len(session.query("clear(1)").all()) == 1
        assert len(session.query("flag(X)").all()) == 0

    def test_retract_missing_fact_fails(self):
        session = Session()
        session.consult_string(
            """
            module m.
            export clear(b).
            @pipelining.
            clear(X) :- retract(nothing(X)).
            end_module.
            """
        )
        assert len(session.query("clear(1)").all()) == 0


class TestTextFilePersistence:
    def test_dump_and_reconsult_round_trip(self, tmp_path):
        session = Session()
        session.insert("edge", 1, 2)
        session.insert("edge", "a", "b")
        session.relation("edge", 2).insert_values("note", "hello world")
        path = tmp_path / "edges.coral"
        written = session.dump_relation("edge", 2, str(path))
        assert written == 3

        fresh = Session()
        fresh.consult(str(path))
        assert len(fresh.query("edge(X, Y)").all()) == 3
        assert len(fresh.query('edge(note, "hello world")').all()) == 1

    def test_dump_non_ground_fact(self, tmp_path):
        session = Session()
        session.consult_string("always(X).")
        path = tmp_path / "univ.coral"
        session.dump_relation("always", 1, str(path))
        fresh = Session()
        fresh.consult(str(path))
        assert len(fresh.query("always(42)").all()) == 1

    def test_consult_command_in_file(self, tmp_path):
        data = tmp_path / "data.coral"
        data.write_text("edge(1, 2). edge(2, 3).")
        main = tmp_path / "main.coral"
        main.write_text(
            '@consult "data.coral".\n'
            "module tc.\n"
            "export path(bf).\n"
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
            "end_module.\n"
        )
        session = Session()
        session.consult(str(main))
        assert sorted(a["Y"] for a in session.query("path(1, Y)")) == [2, 3]


class TestAblationFlags:
    def test_no_backjumping_same_answers(self):
        program = """
        edge(1, 2). edge(2, 3). edge(3, 4).
        module m.
        export p(bf).
        {flags}
        p(X, Y) :- edge(X, Y).
        p(X, Y) :- edge(X, Z), p(Z, Y).
        end_module.
        """
        plain = Session()
        plain.consult_string(program.format(flags=""))
        ablated = Session(compiled=None)  # backjumping is the interpreter's
        ablated.consult_string(program.format(flags="@no_backjumping.\n@no_index_selection."))
        assert sorted(a["Y"] for a in plain.query("p(1, Y)")) == sorted(
            a["Y"] for a in ablated.query("p(1, Y)")
        )
        compiled = ablated.modules.compiled_form("m", "p", "bf")
        assert not compiled.use_backjumping
        assert not compiled.base_index_specs
