"""Unit tests for the rewriting transformations (paper Section 4.1)."""

import pytest

from repro.builtins import default_registry
from repro.errors import RewriteError, StratificationError
from repro.language import parse_module
from repro.rewriting import (
    FactoringNotApplicable,
    adorn_program,
    build_dependency_graph,
    check_stratified,
    condensation_order,
    existential_rewrite,
    factoring_rewrite,
    delta_rules,
    magic_rewrite,
    recursive_predicates,
    seminaive_rewrite,
    supmagic_rewrite,
)

REGISTRY = default_registry()


def is_builtin(name, arity):
    return REGISTRY.is_builtin(name, arity)


def tc_rules():
    module = parse_module(
        """
        module tc.
        export path(bf).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        end_module.
        """
    )
    return module.rules


def heads(rules):
    return {rule.head.pred for rule in rules}


class TestAdornment:
    def test_tc_bf(self):
        adorned = adorn_program(tc_rules(), "path", 2, "bf", is_builtin)
        assert adorned.query_pred == "path_bf"
        assert heads(adorned.rules) == {"path_bf"}
        recursive = [
            lit
            for rule in adorned.rules
            for lit in rule.body
            if lit.pred.startswith("path")
        ]
        assert all(lit.pred == "path_bf" for lit in recursive)

    def test_tc_fb_adorns_differently(self):
        adorned = adorn_program(tc_rules(), "path", 2, "fb", is_builtin)
        assert adorned.query_pred == "path_fb"
        # left-to-right sideways passing: edge(X,Z) binds Z, so the
        # recursive call path(Z, Y) has both arguments' status: Z bound via
        # edge, Y bound from the head: bb
        body_adornments = {
            lit.pred
            for rule in adorned.rules
            for lit in rule.body
            if lit.pred.startswith("path_")
        }
        assert body_adornments == {"path_bb"}

    def test_base_predicates_untouched(self):
        adorned = adorn_program(tc_rules(), "path", 2, "bf", is_builtin)
        edges = [
            lit
            for rule in adorned.rules
            for lit in rule.body
            if lit.pred.startswith("edge")
        ]
        assert all(lit.pred == "edge" for lit in edges)

    def test_builtins_bind_variables(self):
        module = parse_module(
            """
            module m.
            export p(bf).
            p(X, Y) :- Y = X + 1, q(Y, X).
            q(A, B) :- base(A, B).
            end_module.
            """
        )
        adorned = adorn_program(module.rules, "p", 2, "bf", is_builtin)
        q_literals = {
            lit.pred
            for rule in adorned.rules
            for lit in rule.body
            if lit.pred.startswith("q_")
        }
        assert q_literals == {"q_bb"}  # both bound after the '=' builtin

    def test_a_selection_keeps_only_its_grouping_positions_bound(self):
        """``cost`` groups by (X, Y): neither the query form nor a body
        call may push a cost binding past the selection."""
        module = parse_module(
            """
            module m.
            export cost(bbb).
            @aggregate_selection cost(X, Y, C) (X, Y) min(C).
            cost(X, Y, C) :- edge(X, Y, C).
            cost(X, Y, C) :- cost(X, Z, C1), edge(Z, Y, C2), C = C1 + C2.
            cheap(X, Y) :- edge(X, Y, C), cost(X, Y, C).
            end_module.
            """
        )
        adorned = adorn_program(
            module.rules, "cost", 3, "bbb", is_builtin, module.aggregate_selections
        )
        assert adorned.query_pred == "cost_bbf"
        assert adorned.query_adornment == "bbf"
        adorned = adorn_program(
            module.rules, "cheap", 2, "ff", is_builtin, module.aggregate_selections
        )
        assert "cost_bbf" in heads(adorned.rules)
        assert "cost_bbb" not in heads(adorned.rules)

    def test_bad_adornment_rejected(self):
        with pytest.raises(RewriteError):
            adorn_program(tc_rules(), "path", 2, "bx", is_builtin)

    def test_unknown_query_pred_rejected(self):
        with pytest.raises(RewriteError):
            adorn_program(tc_rules(), "ghost", 2, "bf", is_builtin)


class TestMagic:
    def test_guard_added_to_every_rule(self):
        adorned = adorn_program(tc_rules(), "path", 2, "bf", is_builtin)
        rewritten = magic_rewrite(adorned, is_builtin)
        guarded = [r for r in rewritten.rules if r.head.pred == "path_bf"]
        assert len(guarded) == 2
        for rule in guarded:
            assert rule.body[0].pred == "m_path_bf"

    def test_magic_rules_generated(self):
        adorned = adorn_program(tc_rules(), "path", 2, "bf", is_builtin)
        rewritten = magic_rewrite(adorned, is_builtin)
        magic_rules = [r for r in rewritten.rules if r.head.pred == "m_path_bf"]
        assert len(magic_rules) == 1  # one derived body literal
        assert rewritten.magic_pred == "m_path_bf"
        assert rewritten.bound_positions == (0,)

    def test_magic_pred_arity_is_bound_count(self):
        adorned = adorn_program(tc_rules(), "path", 2, "bf", is_builtin)
        rewritten = magic_rewrite(adorned, is_builtin)
        magic_rule = [r for r in rewritten.rules if r.head.pred == "m_path_bf"][0]
        assert len(magic_rule.head.args) == 1


class TestSupplementaryMagic:
    def test_sup_relations_created_for_nonempty_prefix(self):
        adorned = adorn_program(tc_rules(), "path", 2, "bf", is_builtin)
        rewritten = supmagic_rewrite(adorned, is_builtin)
        sup_heads = [h for h in heads(rewritten.rules) if h.startswith("sup_")]
        assert sup_heads  # edge(X, Z) prefix materialized once

    def test_sup_magic_equivalent_answer_pred(self):
        adorned = adorn_program(tc_rules(), "path", 2, "bf", is_builtin)
        rewritten = supmagic_rewrite(adorned, is_builtin)
        assert rewritten.answer_pred == "path_bf"
        assert rewritten.technique == "supplementary_magic"

    def test_goalid_variant_wraps_goal_term(self):
        adorned = adorn_program(tc_rules(), "path", 2, "bf", is_builtin)
        rewritten = supmagic_rewrite(adorned, is_builtin, use_goal_ids=True)
        assert rewritten.technique == "supplementary_magic_goalid"
        sup_rules = [
            r for r in rewritten.rules if r.head.pred.startswith("sup_")
        ]
        assert sup_rules
        from repro.terms import Functor

        for rule in sup_rules:
            assert isinstance(rule.head.args[0], Functor)
            assert rule.head.args[0].name == "goal"


class TestSemiNaive:
    def test_versions_per_recursive_literal(self):
        module = parse_module(
            """
            module m.
            export p(ff).
            p(X, Y) :- p(X, Z), p(Z, Y).
            p(X, Y) :- e(X, Y).
            end_module.
            """
        )
        once, delta = seminaive_rewrite(
            module.rules, {("p", 2)}, is_builtin
        )
        assert len(once) == 1  # the exit rule
        assert len(delta) == 2  # one version per recursive literal

    def test_triangular_scan_kinds(self):
        module = parse_module(
            """
            module m.
            export p(ff).
            p(X, Y) :- p(X, Z), p(Z, Y).
            end_module.
            """
        )
        _once, delta = seminaive_rewrite(module.rules, {("p", 2)}, is_builtin)
        first, second = delta
        # the seed reads the last iteration's arrivals; the other recursive
        # literal reads [0, prev) after the seed, [0, cur) before it
        assert (first.seed, first.recursive) == (0, frozenset({1}))
        assert (second.seed, second.recursive) == (1, frozenset({0}))
        assert str(first) == "p(X, Y) :- p(X, Z)·δ, p(Z, Y)·old."
        assert str(second) == "p(X, Y) :- p(X, Z), p(Z, Y)·δ."

    def test_nonrecursive_literals_are_all(self):
        once, delta = seminaive_rewrite(tc_rules(), {("path", 2)}, is_builtin)
        version = delta[0]
        assert version.body[version.seed].pred == "path"
        assert not version.recursive  # edge reads its full extent
        assert str(version) == "path(X, Y) :- edge(X, Z), path(Z, Y)·δ."

    def test_naive_rewrite_full_scans(self):
        once, every = seminaive_rewrite(
            tc_rules(), {("path", 2)}, is_builtin, naive=True
        )
        assert len(once) == 1 and len(every) == 1
        assert every[0].seed == -1 and not every[0].recursive

    def test_resumption_versions_seed_every_outside_literal(self):
        """Save-module resumption seeds one version at each positive,
        non-builtin literal of a relation outside the recursion; the rest
        of the body keeps its written order and full extents."""
        rules = tc_rules()
        versions = delta_rules(rules, is_builtin, {("edge", 2)})
        assert [(v.source_index, v.seed) for v in versions] == [(0, 0), (1, 0)]
        assert all(not v.recursive for v in versions)
        assert versions[1].body == rules[1].body

    def test_maintenance_joins_put_the_seed_first(self):
        """With an ``order``, every positive non-builtin literal seeds a
        join that runs it first, the rest arranged by the order."""
        module = parse_module(
            """
            module m.
            p(X, Y) :- e(X, Z), Z > 1, f(Z, Y), not g(Y).
            end_module.
            """
        )
        versions = delta_rules(
            module.rules, is_builtin, order=lambda rest, seed: rest
        )
        assert [str(v.body[0]) for v in versions] == ["e(X, Z)", "f(Z, Y)"]
        assert all(v.seed == 0 for v in versions)
        assert [str(l) for l in versions[1].body[1:]] == [
            "e(X, Z)", "Z > 1", "not g(Y)"
        ]


class TestDependencyGraph:
    def test_scc_order_callees_first(self):
        module = parse_module(
            """
            module m.
            export a(f).
            a(X) :- b(X).
            b(X) :- c(X).
            c(X) :- base(X).
            end_module.
            """
        )
        graph = build_dependency_graph(module.rules, is_builtin)
        order = condensation_order(graph)
        names = [sorted(component)[0][0] for component in order]
        assert names.index("c") < names.index("b") < names.index("a")

    def test_mutual_recursion_single_scc(self):
        module = parse_module(
            """
            module m.
            export even(b).
            even(X) :- next(Y, X), odd(Y).
            odd(X) :- next(Y, X), even(Y).
            end_module.
            """
        )
        graph = build_dependency_graph(module.rules, is_builtin)
        components = [c for c in condensation_order(graph) if len(c) > 1]
        assert len(components) == 1
        assert {pred for pred, _ in components[0]} == {"even", "odd"}

    def test_self_recursion_detected(self):
        graph = build_dependency_graph(tc_rules(), is_builtin)
        for component in condensation_order(graph):
            if ("path", 2) in component:
                assert recursive_predicates(graph, component) == {("path", 2)}

    def test_nonrecursive_singleton_not_recursive(self):
        module = parse_module(
            "module m. export p(f). p(X) :- base(X). end_module."
        )
        graph = build_dependency_graph(module.rules, is_builtin)
        (component,) = condensation_order(graph)
        assert recursive_predicates(graph, component) == set()

    def test_stratified_negation_accepted(self):
        module = parse_module(
            """
            module m.
            export q(f).
            p(X) :- base(X).
            q(X) :- other(X), not p(X).
            end_module.
            """
        )
        graph = build_dependency_graph(module.rules, is_builtin)
        strata = check_stratified(graph)
        assert strata[("q", 1)] > strata[("p", 1)]

    def test_negative_cycle_rejected(self):
        module = parse_module(
            """
            module m.
            export win(b).
            win(X) :- move(X, Y), not win(Y).
            end_module.
            """
        )
        graph = build_dependency_graph(module.rules, is_builtin)
        with pytest.raises(StratificationError):
            check_stratified(graph)

    def test_aggregation_cycle_rejected(self):
        module = parse_module(
            """
            module m.
            export p(ff).
            p(X, min(<C>)) :- p(X, C).
            end_module.
            """
        )
        graph = build_dependency_graph(module.rules, is_builtin)
        with pytest.raises(StratificationError):
            check_stratified(graph)


class TestExistentialRewrite:
    def test_unused_position_dropped(self):
        module = parse_module(
            """
            module m.
            export reach(b).
            reach(X) :- t(X, Y).
            t(X, Y) :- e(X, Y).
            t(X, Y) :- e(X, Z), t(Z, Y).
            end_module.
            """
        )
        rewritten = existential_rewrite(module.rules, "reach", 1, is_builtin)
        t_heads = [r.head for r in rewritten if r.head.pred.startswith("t")]
        assert t_heads
        assert all(len(head.args) == 1 for head in t_heads)

    def test_join_variable_kept(self):
        module = parse_module(
            """
            module m.
            export q(b).
            q(X) :- t(X, Y), uses(Y).
            t(X, Y) :- e(X, Y).
            end_module.
            """
        )
        rewritten = existential_rewrite(module.rules, "q", 1, is_builtin)
        t_heads = [r.head for r in rewritten if r.head.pred.startswith("t")]
        assert all(len(head.args) == 2 for head in t_heads)

    def test_no_change_returns_same_rules(self):
        rules = tc_rules()
        assert existential_rewrite(rules, "path", 2, is_builtin) == list(rules)


class TestFactoring:
    def test_right_linear_accepted(self):
        module = parse_module(
            """
            module m.
            export p(bf).
            p(X, Y) :- e(X, Y).
            p(X, Y) :- e(X, Z), p(Z, Y).
            end_module.
            """
        )
        rewritten = factoring_rewrite(module, "p", "bf")
        assert rewritten.technique == "factoring"
        assert rewritten.answer_positions == (1,)
        assert {r.head.pred for r in rewritten.rules} == {"ctx_p", "fans_p"}

    def test_left_linear_rejected(self):
        module = parse_module(
            """
            module m.
            export p(bf).
            p(X, Y) :- e(X, Y).
            p(X, Y) :- p(X, Z), e(Z, Y).
            end_module.
            """
        )
        with pytest.raises(FactoringNotApplicable):
            factoring_rewrite(module, "p", "bf")

    def test_all_free_rejected(self):
        module = parse_module(
            """
            module m.
            export p(ff).
            p(X, Y) :- e(X, Y).
            p(X, Y) :- e(X, Z), p(Z, Y).
            end_module.
            """
        )
        with pytest.raises(FactoringNotApplicable):
            factoring_rewrite(module, "p", "ff")

    def test_nonlinear_rejected(self):
        module = parse_module(
            """
            module m.
            export p(bf).
            p(X, Y) :- e(X, Y).
            p(X, Y) :- p(X, Z), p(Z, Y).
            end_module.
            """
        )
        with pytest.raises(FactoringNotApplicable):
            factoring_rewrite(module, "p", "bf")


class TestExistentialProtection:
    def test_aggregate_selection_predicates_not_projected(self):
        """Regression (found by fuzzing): projecting a position out of a
        predicate carrying an @aggregate_selection detaches the selection
        and leaks dominated facts downstream."""
        from repro import Session

        session = Session()
        session.consult_string(
            """
            obs(0, 0, 0). obs(0, 1, 1).
            module m.
            export peak(bf).
            @aggregate_selection keep(G, V, I) (G) max(V).
            keep(G, V, I) :- obs(G, V, I).
            peak(G, V) :- keep(G, V, I).
            end_module.
            """
        )
        assert sorted(set(a["V"] for a in session.query("peak(0, V)"))) == [1]
        compiled = session.modules.compiled_form("m", "peak", "bf")
        assert compiled.constraints  # the selection actually attached
