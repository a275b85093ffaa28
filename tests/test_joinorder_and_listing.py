"""Tests for opt-in join ordering (Section 4.2) and for the re-parseability
of printed programs (the rewritten listing is a consultable text file)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Session
from repro.builtins import default_registry
from repro.language import parse_module, parse_program
from repro.language.ast import Literal, Rule
from repro.optimizer.joinorder import order_body, order_rule_body
from repro.terms import Int, Var

REGISTRY = default_registry()


def _order(source: str) -> str:
    module = parse_module(source)
    rule = order_rule_body(module.rules[0], REGISTRY.lookup)
    return str(rule)


class TestJoinOrdering:
    def test_comparison_scheduled_when_bound(self):
        ordered = _order(
            "module m. q(X) :- a(X), b(Y), X > 3. end_module."
        )
        # X > 3 moves right after a(X) binds X, ahead of the unrelated b(Y)
        assert ordered == "q(X) :- a(X), X > 3, b(Y)."

    def test_bound_probe_preferred(self):
        ordered = _order(
            "module m. q(X) :- a(X), c(Z), b(X, Y). end_module."
        )
        # after a(X), b(X, Y) has one bound argument; c(Z) has none
        assert ordered == "q(X) :- a(X), b(X, Y), c(Z)."

    def test_negation_deferred_until_safe(self):
        ordered = _order(
            "module m. q(X) :- not bad(Y), a(X), link(X, Y). end_module."
        )
        assert ordered.index("not bad") > ordered.index("link")

    def test_impure_rule_untouched(self):
        source = "module m. q(X) :- b(Y), write(Y), a(X). end_module."
        module = parse_module(source)
        assert order_rule_body(module.rules[0], REGISTRY.lookup) is module.rules[0]

    def test_equals_scheduled_when_one_side_bound(self):
        ordered = _order(
            "module m. q(Y) :- b(Z), a(X), Y = X + 1. end_module."
        )
        assert ordered.endswith("a(X), Y = (X + 1).") or ordered.endswith(
            "Y = (X + 1)."
        )

    def test_equals_waits_for_its_arithmetic_side(self):
        # `=` evaluates an arithmetic side, so Y being bound is no licence
        # to run `Y = X + 1` before a(X) binds X
        ordered = _order(
            "module m. q(Y) :- c(Y), Y = X + 1, a(X). end_module."
        )
        assert ordered == "q(Y) :- c(Y), a(X), Y = (X + 1)."

    def test_bodies_are_ordered_for_the_bindings_they_start_from(self):
        rule = parse_module(
            "module m. q(X, Y) :- a(X, Z), Y = Z + 1, b(Y, W). end_module."
        ).rules[0]
        # seeded with b's variables (a delta join on b): a(X, Z) has nothing
        # bound, but once it runs the `=` becomes a check
        seed = rule.body[2]
        rest = order_body(
            rule.body[:2], REGISTRY.lookup,
            {var.vid for arg in seed.args for var in arg.variables()},
        )
        assert [str(literal) for literal in rest] == ["a(X, Z)", "Y = (Z + 1)"]
        # seeded with the head's variables (a re-derivation check)
        body = order_body(
            rule.body, REGISTRY.lookup,
            {var.vid for arg in rule.head.args for var in arg.variables()},
        )
        assert [str(literal) for literal in body] == [
            "a(X, Z)", "Y = (Z + 1)", "b(Y, W)",
        ]

    def test_same_answers_with_and_without(self):
        program = """
        big(1). big(2). big(3). tiny(9). link(9, 2).

        module m.
        export q(f).
        {flags}
        q(X) :- big(X), tiny(T), link(T, X).
        end_module.
        """
        plain = Session()
        plain.consult_string(program.format(flags=""))
        ordered = Session()
        ordered.consult_string(program.format(flags="@join_ordering."))
        assert sorted(a["X"] for a in plain.query("q(X)")) == sorted(
            a["X"] for a in ordered.query("q(X)")
        )


class TestPrintedProgramsReparse:
    CASES = [
        "p(X, Y) :- edge(X, Y).",
        "p(X) :- q(X), not r(X).",
        "p(X, C) :- q(X, A, B), C = A + B * 2.",
        "p(X) :- q(X), X <= 5, X != 2.",
        "p(X, [X|T]) :- q(T).",
        'p("hello world", john, 3.5) :- q(1).',
        "p(f(g(X), 10)) :- q(X).",
    ]

    @pytest.mark.parametrize("clause", CASES)
    def test_round_trip_is_stable(self, clause):
        source = f"module m. {clause} end_module."
        first = str(parse_module(source).rules[0])
        second = str(parse_module(f"module m. {first} end_module.").rules[0])
        assert first == second

    def test_aggregation_head_round_trips(self):
        source = "module m. p(X, min(<C>)) :- q(X, C). end_module."
        printed = str(parse_module(source).rules[0])
        reparsed = parse_module(f"module m. {printed} end_module.").rules[0]
        assert reparsed.head_aggregates[0][1].function == "min"

    def test_rewritten_listing_reparses(self):
        """The optimizer's listing (minus comment lines) must be legal
        syntax — it is advertised as a debugging text file."""
        session = Session()
        session.consult_string(
            """
            module tc.
            export total(bf).
            total(X, C) :- edge(X, Y, W), C = W + 1.
            total(X, C) :- edge(X, Z, W), total(Z, C0), C = C0 + W.
            end_module.
            edge(1, 2, 5).
            """
        )
        listing = session.modules.compiled_form("tc", "total", "bf").listing()
        body = "\n".join(
            line for line in listing.splitlines() if not line.startswith("%")
        )
        parse_module(f"module copy.\n{body}\nend_module.")

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["p", "q", "edge"]),
        values=st.lists(st.integers(-99, 99), min_size=1, max_size=4),
    )
    def test_fact_round_trip_property(self, name, values):
        inner = ", ".join(str(v) for v in values)
        program = parse_program(f"{name}({inner}).")
        printed = str(program.facts[0])
        reparsed = parse_program(printed)
        assert reparsed.facts[0].head.args == program.facts[0].head.args
