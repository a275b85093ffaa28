"""Tests for the host-language interface (Section 6) and extensibility
(Section 7): coral_export, ScanDescriptor, user ADTs, function relations,
custom index specs, the explanation tool, and the shell."""

import pytest

from repro import Session, Tuple, coral_export
from repro.errors import EvaluationError, ExtensibilityError
from repro.extensibility import FunctionRelation, TypeRegistry
from repro.api import ScanDescriptor
from repro.relations import HashRelation, IndexSpec, VAR_BUCKET
from repro.shell import Shell
from repro.terms import Arg, Atom, Int


class TestCoralExport:
    def test_host_predicate_in_rules(self):
        session = Session()

        @coral_export(session.ctx.builtins, "double", 2)
        def double(x, y):
            if x is not None:
                yield (x, 2 * x)
            elif y is not None and y % 2 == 0:
                yield (y // 2, y)

        session.consult_string(
            """
            n(1). n(2). n(3).

            module m.
            export twice(f).
            twice(Y) :- n(X), double(X, Y).
            end_module.
            """
        )
        assert sorted(a["Y"] for a in session.query("twice(Y)")) == [2, 4, 6]

    def test_reverse_mode(self):
        session = Session()

        @coral_export(session.ctx.builtins, "halve", 2)
        def halve(x, y):
            if y is not None and y % 2 == 0:
                yield (y // 2, y)

        answers = session.ctx.builtins.lookup("halve", 2)
        assert answers is not None

        session.consult_string(
            """
            module m.
            export half_of_ten(f).
            half_of_ten(X) :- halve(X, 10).
            end_module.
            """
        )
        assert [a["X"] for a in session.query("half_of_ten(X)")] == [5]

    def test_primitive_restriction_enforced(self):
        """Section 6.2: only primitive types cross the boundary."""
        session = Session()

        @coral_export(session.ctx.builtins, "ident", 1)
        def ident(x):
            yield (x,)

        session.consult_string(
            """
            module m.
            export boom(f).
            boom(X) :- ident(f(X)).
            end_module.
            """
        )
        with pytest.raises(EvaluationError):
            session.query("boom(X)").all()

    def test_bad_arity_yield_rejected(self):
        session = Session()

        @coral_export(session.ctx.builtins, "bad", 1)
        def bad(x):
            yield (1, 2)

        session.consult_string(
            "module m. export q(f). q(X) :- bad(X). end_module."
        )
        with pytest.raises(EvaluationError):
            session.query("q(X)").all()


class TestScanDescriptor:
    def test_scan_all(self):
        session = Session()
        session.insert("emp", "john", 30)
        session.insert("emp", "mary", 40)
        with ScanDescriptor(session.relation("emp", 2)) as scan:
            rows = sorted(scan)
        assert rows == [("john", 30), ("mary", 40)]

    def test_scan_with_selection(self):
        session = Session()
        session.insert("emp", "john", 30)
        session.insert("emp", "mary", 40)
        scan = ScanDescriptor(session.relation("emp", 2), ["john", None])
        assert scan.get_next() == ("john", 30)
        assert scan.get_next() is None

    def test_selection_arity_checked(self):
        session = Session()
        session.insert("emp", "john", 30)
        with pytest.raises(EvaluationError):
            ScanDescriptor(session.relation("emp", 2), ["john"])

    def test_scan_over_derived_relation(self):
        """The same cursor works over a module's export (Section 5.6)."""
        session = Session()
        session.consult_string(
            """
            edge(1, 2). edge(2, 3).

            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        derived = session.ctx.resolve("path", 2)
        scan = ScanDescriptor(derived, [1, None])
        assert sorted(scan) == [(1, 2), (1, 3)]


class Temperature(Arg):
    """A user ADT: a temperature with unit-aware equality (Section 7.1)."""

    __slots__ = ("celsius",)
    kind = "temp"

    def __init__(self, celsius: float) -> None:
        object.__setattr__(self, "celsius", float(celsius))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def equals(self, other) -> bool:
        return isinstance(other, Temperature) and other.celsius == self.celsius

    def __eq__(self, other):
        return self.equals(other) if isinstance(other, Arg) else NotImplemented

    def __hash__(self):
        return hash(("temp", self.celsius))

    def hash_value(self) -> int:
        return hash(self)

    def ground_key(self):
        return ("temp", self.celsius)

    @classmethod
    def construct(cls, value):
        celsius = value.value if isinstance(value, (Int,)) else value
        if isinstance(celsius, Arg):
            celsius = celsius.value
        return cls(celsius)

    def __str__(self):
        return f"celsius({self.celsius:g})"


class TestUserTypes:
    def test_registry_contract_checked(self):
        registry = TypeRegistry()

        class NotATerm:
            pass

        with pytest.raises(ExtensibilityError):
            registry.register("bad", NotATerm)

    def test_registered_type_reconstructed_from_text(self):
        session = Session()
        session.register_type("celsius", Temperature)
        session.consult_string("reading(probe1, celsius(20)).")
        answers = session.query("reading(probe1, T)").all()
        assert len(answers) == 1
        assert isinstance(answers[0].term("T"), Temperature)
        assert answers[0].term("T").celsius == 20.0

    def test_adt_equality_drives_joins(self):
        session = Session()
        session.register_type("celsius", Temperature)
        session.consult_string(
            """
            reading(a, celsius(20)).
            reading(b, celsius(20)).
            reading(c, celsius(25)).

            module m.
            export same_temp(ff).
            same_temp(X, Y) :- reading(X, T), reading(Y, T), X != Y.
            end_module.
            """
        )
        pairs = {(a["X"], a["Y"]) for a in session.query("same_temp(X, Y)")}
        assert pairs == {("a", "b"), ("b", "a")}

    def test_duplicate_registration_rejected(self):
        registry = TypeRegistry()
        registry.register("celsius", Temperature)
        with pytest.raises(ExtensibilityError):
            registry.register("celsius", Temperature)


class TestFunctionRelation:
    def test_computed_relation_in_rules(self):
        session = Session()

        def squares(n, sq):
            if n is not None:
                yield (n.value, n.value**2)
            else:
                for i in range(10):
                    yield (i, i * i)

        session.register_relation(FunctionRelation("square", 2, squares))
        session.consult_string(
            """
            module m.
            export small_square(ff).
            small_square(N, S) :- square(N, S), S < 10.
            end_module.
            """
        )
        rows = {(a["N"], a["S"]) for a in session.query("small_square(N, S)")}
        assert rows == {(0, 0), (1, 1), (2, 4), (3, 9)}

    def test_insert_rejected(self):
        relation = FunctionRelation("f", 1, lambda x: iter(()))
        with pytest.raises(ExtensibilityError):
            relation.insert(Tuple((Int(1),)))


class ModuloIndexSpec(IndexSpec):
    """A custom index: buckets integers by value mod k (Section 7.2)."""

    def __init__(self, position: int, modulus: int) -> None:
        self.position = position
        self.modulus = modulus

    def key_for_tuple(self, tup):
        arg = tup.args[self.position]
        if isinstance(arg, Int):
            return arg.value % self.modulus
        return VAR_BUCKET

    def key_for_probe(self, pattern, env):
        from repro.terms import resolve

        arg = resolve(pattern[self.position], env)
        if isinstance(arg, Int):
            return arg.value % self.modulus
        return None

    def describe(self):
        return f"mod{self.modulus}(arg{self.position})"


class TestCustomIndex:
    def test_custom_index_spec_plugs_in(self):
        relation = HashRelation("nums", 1)
        relation.add_index(ModuloIndexSpec(0, 3))
        for i in range(30):
            relation.insert(Tuple((Int(i),)))
        hits = list(relation.scan([Int(6)], None))
        assert all(t[0].value % 3 == 0 for t in hits)
        assert len(hits) == 10  # the mod-3 bucket (candidates; caller filters)


class TestExplanation:
    def test_proof_tree(self):
        session = Session()
        tracer = session.enable_tracing()
        session.consult_string(
            """
            edge(1, 2). edge(2, 3).

            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        session.query("path(1, Y)").all()
        assert len(tracer) > 0
        # the optimizer factors this right-linear form: answers are
        # fans_path(Y), supported by a context fact and an edge
        assert tracer.derivations_of("fans_path(3)")
        tree = tracer.why("fans_path(3)")
        assert "ctx_path(2)" in tree and "edge(2, 3)" in tree

    def test_tracing_off_by_default(self):
        session = Session()
        assert session.ctx.tracer is None

    def test_overflow_is_not_silent(self):
        """Regression: dropping derivations past the limit used to be
        invisible — a truncated trace answered ``why`` as if complete.  The
        tracer must raise its ``overflowed`` flag and say so in ``why``."""
        from repro.explain import DerivationTracer

        tracer = DerivationTracer(limit=3)
        for i in range(5):
            tracer.record("p", f"p({i})", "p(X) :- q(X).", (f"q({i})",))
        assert tracer.overflowed
        assert len(tracer) == 3
        # recorded facts warn...
        assert "overflowed" in tracer.why("p(0)")
        # ...and so do unrecorded ones, where truncation masquerades as [base]
        assert "overflowed" in tracer.why("p(4)")

    def test_no_overflow_no_warning(self):
        from repro.explain import DerivationTracer

        tracer = DerivationTracer(limit=10)
        tracer.record("p", "p(1)", "p(X) :- q(X).", ("q(1)",))
        assert not tracer.overflowed
        assert "overflowed" not in tracer.why("p(1)")

    def test_session_overflow_end_to_end(self):
        session = Session()
        tracer = session.enable_tracing(limit=2)
        session.consult_string(
            """
            edge(1, 2). edge(2, 3). edge(3, 4).

            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        session.query("path(1, Y)").all()
        assert tracer.overflowed
        assert "overflowed" in tracer.why("path_bf(1, 2)")


class TestShell:
    def test_facts_and_query(self):
        shell = Shell()
        shell.execute("parent(a, b).")
        output = shell.execute("parent(a, X)?")
        assert "X = b" in output
        assert "1 answer(s)." in output

    def test_module_and_query(self):
        shell = Shell()
        shell.execute(
            """
            edge(1, 2). edge(2, 3).
            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        output = shell.execute("?- path(1, Y).")
        assert "2 answer(s)." in output

    def test_stats_command(self):
        shell = Shell()
        output = shell.execute("@stats.")
        assert "inferences" in output

    def test_listing_command(self):
        shell = Shell()
        shell.execute(
            """
            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        output = shell.execute("@listing tc path bf.")
        assert "ctx_path" in output
        assert "factoring: chosen" in output

    def test_parse_error_reported_not_raised(self):
        shell = Shell()
        output = shell.execute("this is (not valid.")
        assert output.startswith("error:")

    def test_quit(self):
        shell = Shell()
        assert shell.execute("@quit.") == "bye."
        assert shell.done

    def test_input_complete_heuristic(self):
        assert Shell.input_complete("p(1).")
        assert Shell.input_complete("p(1, X)?")
        assert not Shell.input_complete("module m.")
        assert Shell.input_complete("module m. p(1). end_module.")

    def test_consult_file(self, tmp_path):
        path = tmp_path / "data.coral"
        path.write_text("fact(1). fact(2).")
        shell = Shell()
        assert "consulted" in shell.execute(f'@consult "{path}".')
        assert "2 answer(s)." in shell.execute("fact(X)?")
