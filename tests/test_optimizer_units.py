"""Unit tests for the optimizer's compile-time decisions (Section 4)."""

import pytest

from repro import Session
from repro.builtins import default_registry
from repro.language import parse_module
from repro.optimizer import Optimizer
from repro.relations import ArgumentIndexSpec

REGISTRY = default_registry()


def optimizer():
    return Optimizer(REGISTRY.is_builtin, REGISTRY.lookup)


TC = parse_module(
    """
    module tc.
    export path(bf, ff).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    end_module.
    """
)


class TestTechniqueSelection:
    def test_bound_form_of_a_linear_recursion_is_factored(self):
        compiled = optimizer().compile(TC, "path", "bf")
        assert compiled.rewritten.technique == "factoring"
        assert compiled.choice == [
            ("none", "form bf binds arguments"),
            ("factoring", "chosen"),
        ]

    def test_all_free_form_skips_rewriting(self):
        compiled = optimizer().compile(TC, "path", "ff")
        assert compiled.rewritten.technique == "none"
        assert compiled.rewritten.magic_pred is None

    def test_flag_overrides(self):
        for flag, technique in (
            ("@magic.", "magic"),
            ("@supplementary_magic_goalid.", "supplementary_magic_goalid"),
            ("@no_rewriting.", "none"),
        ):
            module = parse_module(
                f"""
                module tc.
                export path(bf).
                {flag}
                path(X, Y) :- edge(X, Y).
                path(X, Y) :- edge(X, Z), path(Z, Y).
                end_module.
                """
            )
            compiled = optimizer().compile(module, "path", "bf")
            assert compiled.rewritten.technique == technique, flag

    def test_factoring_falls_back_when_inapplicable(self):
        module = parse_module(
            """
            module m.
            export p(bf).
            @context_factoring.
            p(X, Y) :- e(X, Y).
            p(X, Y) :- p(X, Z), e(Z, Y).
            end_module.
            """
        )
        compiled = optimizer().compile(module, "p", "bf")
        # left-linear: factoring inapplicable -> supplementary magic fallback
        assert compiled.rewritten.technique == "supplementary_magic"
        assert compiled.choice[1] == (
            "factoring",
            "free argument 2 of p/2 does not pass through the recursive "
            "call unchanged",
        )


def _factoring_verdict(text, pred="p", form="bf"):
    compiled = optimizer().compile(parse_module(text), pred, form)
    return dict(compiled.choice)["factoring"], compiled


class TestFactoringPrecondition:
    """The precondition is conservative, and every rejection says why.  The
    first four were silent misbehaviours of ``factoring_rewrite``."""

    def test_non_recursive_predicate_keeps_its_aggregate_selection(self):
        why, compiled = _factoring_verdict(
            """
            module m.
            export p(bff).
            @context_factoring.
            @aggregate_selection p(X, Y, C) (X, Y) min(C).
            p(X, Y, C) :- e(X, Y, C).
            end_module.
            """,
            form="bff",
        )
        assert why == "p/3 has no recursive rule"
        assert compiled.constraints  # used to be dropped: origin was {}

    def test_other_exports_are_not_carried_into_the_factored_program(self):
        session = Session()
        session.consult_string(
            """
            e(1, 2). e(2, 3). price(1, 5).
            module m.
            export p(bf).
            export cheap(bf).
            cheap(Limit, X) :- price(X, P), P <= Limit.
            p(X, Y) :- e(X, Y).
            p(X, Y) :- e(X, Z), p(Z, Y).
            end_module.
            """
        )
        # cheap/2 run with no bindings raised "unbound operand Limit"
        assert sorted(session.query("p(1, Y)").tuples()) == [(1, 2), (1, 3)]
        compiled = session.modules.compiled_form("m", "p", "bf")
        assert compiled.rewritten.technique == "factoring"
        assert {r.head.pred for r in compiled.rewritten.rules} == {
            "ctx_p", "fans_p"
        }

    def test_save_module_is_not_factored(self):
        session = Session()
        session.consult_string(
            """
            e(1, 2). e(2, 3). e(3, 4).
            module m.
            export p(bf).
            @save_module.
            @context_factoring.
            p(X, Y) :- e(X, Y).
            p(X, Y) :- e(X, Z), p(Z, Y).
            end_module.
            """
        )
        compiled = session.modules.compiled_form("m", "p", "bf")
        assert dict(compiled.choice)["factoring"] == "module m is @save_module"
        session.query("p(1, Y)").all()
        # a shared context relation answered the union of both calls
        assert sorted(session.query("p(2, Y)").tuples()) == [(2, 3), (2, 4)]

    def test_derived_predicate_in_a_body_is_rejected(self):
        why, compiled = _factoring_verdict(
            """
            module m.
            export p(bf).
            hop(X, Y) :- e(X, Z), e(Z, Y).
            p(X, Y) :- e(X, Y).
            p(X, Y) :- hop(X, Z), p(Z, Y).
            end_module.
            """
        )
        assert why == "body of p/2 calls derived predicate hop/2"
        assert compiled.rewritten.technique == "supplementary_magic"

    def test_recursive_literal_need_not_be_last(self):
        why, compiled = _factoring_verdict(
            """
            module m.
            export p(bf).
            p(X, Y) :- e(X, Y).
            p(X, Y) :- e(X, Z), p(Z, Y), Z > 0.
            end_module.
            """
        )
        assert why == "chosen"
        assert "ctx_p(Z) :- ctx_p(X), e(X, Z), Z > 0." in compiled.listing()

    @pytest.mark.parametrize(
        "rules, why",
        [
            ("p(X, Y) :- e(X, Z), p(Z, Y).", "p/2 has no exit rule"),
            (
                "p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), p(Z, Y).",
                "a rule of p/2 is not linear in it",
            ),
            (
                "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y), Y > 0.",
                "free argument 2 of p/2 does not pass through the "
                "recursive call unchanged",
            ),
            (
                "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(W, Y).",
                "a recursive call of p/2 has an unbound context argument",
            ),
            (
                "p(X, count(<Y>)) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y).",
                "p/2 has head aggregates",
            ),
            (
                "@multiset. p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y).",
                "module m is @multiset",
            ),
        ],
    )
    def test_rejections_say_why(self, rules, why):
        verdict, compiled = _factoring_verdict(
            f"module m.\nexport p(bf).\n{rules}\nend_module.\n"
        )
        assert verdict == why
        assert compiled.rewritten.technique == "supplementary_magic"


class TestRuntimeDecisions:
    def test_lazy_default_for_materialized(self):
        compiled = optimizer().compile(TC, "path", "bf")
        assert compiled.lazy

    def test_save_module_forces_eager(self):
        module = parse_module(
            """
            module m.
            export p(bf).
            @save_module.
            p(X, Y) :- e(X, Y).
            end_module.
            """
        )
        compiled = optimizer().compile(module, "p", "bf")
        assert compiled.save_module and not compiled.lazy

    def test_aggregate_selection_forces_eager(self):
        module = parse_module(
            """
            module m.
            export p(bff).
            @aggregate_selection p(X, Y, C) (X, Y) min(C).
            p(X, Y, C) :- e(X, Y, C).
            end_module.
            """
        )
        compiled = optimizer().compile(module, "p", "bff")
        assert not compiled.lazy
        assert compiled.constraints

    def test_psn_flag_selects_strategy(self):
        module = parse_module(
            """
            module m.
            export p(bf).
            @psn.
            p(X, Y) :- e(X, Y).
            p(X, Y) :- e(X, Z), p(Z, Y).
            end_module.
            """
        )
        assert optimizer().compile(module, "p", "bf").strategy == "psn"

    def test_scc_order_is_callees_first(self):
        compiled = optimizer().compile(TC, "path", "bf")
        names = [sorted(p.preds)[0][0] for p in compiled.scc_plans]
        assert names == ["ctx_path", "fans_path"]  # contexts feed answers

    def test_index_selection_covers_join_probes(self):
        compiled = optimizer().compile(TC, "path", "bf")
        edge_specs = compiled.base_index_specs.get(("edge", 2), [])
        positions = {
            spec.positions
            for spec in edge_specs
            if isinstance(spec, ArgumentIndexSpec)
        }
        assert (0,) in positions  # edge probed with bound first argument

    def test_constraints_mapped_to_adorned_names(self):
        module = parse_module(
            """
            module m.
            export best(bff).
            @aggregate_selection cost(X, Y, C) (X, Y) min(C).
            cost(X, Y, C) :- e(X, Y, C).
            cost(X, Y, C) :- e(X, Z, C1), cost(Z, Y, C2), C = C1 + C2.
            best(X, Y, C) :- cost(X, Y, C).
            end_module.
            """
        )
        compiled = optimizer().compile(module, "best", "bff")
        constrained = {name for (name, _arity), _sel in compiled.constraints}
        assert constrained  # at least the adorned cost relation
        assert all(name.startswith("cost") for name in constrained)

    def test_compiled_forms_cached_per_query_form(self):
        session = Session()
        session.consult_string(
            "edge(1, 2)."
            + """
            module tc.
            export path(bf, ff).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        first = session.modules.compiled_form("tc", "path", "bf")
        again = session.modules.compiled_form("tc", "path", "bf")
        other = session.modules.compiled_form("tc", "path", "ff")
        assert first is again
        assert first is not other
