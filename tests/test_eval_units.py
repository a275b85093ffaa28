"""Unit + property tests for the evaluation layer: the join executor,
backjumping, aggregate folds/constraints, and fixpoint strategy agreement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Session
from repro.errors import EvaluationError
from repro.eval.aggregates import AggregateConstraint, fold_aggregate
from repro.eval.context import EvalContext, LocalScope
from repro.eval.join import BodyExecutor, backtrack_points
from repro.language import parse_module
from repro.language.ast import AggregateSelection, Literal
from repro.relations import HashRelation, Tuple
from repro.rewriting.seminaive import ScanKind, SNLiteral
from repro.terms import Atom, BindEnv, Double, Functor, Int, Trail, Var, resolve


def t(*values):
    return Tuple(tuple(Int(v) if isinstance(v, int) else Atom(v) for v in values))


def sn(literal):
    return SNLiteral(literal, ScanKind.ALL)


@pytest.fixture
def scope():
    ctx = EvalContext()
    scope = LocalScope(ctx)
    return scope


class TestBodyExecutor:
    def _fill(self, scope, name, arity, rows):
        relation = scope.ctx.base_relation(name, arity)
        for row in rows:
            relation.insert(t(*row))
        return relation

    def test_single_literal_join(self, scope):
        self._fill(scope, "e", 2, [(1, 2), (2, 3)])
        x, y = Var("X"), Var("Y")
        executor = BodyExecutor(scope, [sn(Literal("e", (x, y)))])
        env, trail = BindEnv(), Trail()
        solutions = []
        for _ in executor.solutions(env, trail):
            solutions.append((resolve(x, env), resolve(y, env)))
        assert sorted(s[0].value for s in solutions) == [1, 2]

    def test_join_through_shared_variable(self, scope):
        self._fill(scope, "e", 2, [(1, 2), (2, 3), (3, 4)])
        x, y, z = Var("X"), Var("Y"), Var("Z")
        executor = BodyExecutor(
            scope, [sn(Literal("e", (x, y))), sn(Literal("e", (y, z)))]
        )
        env, trail = BindEnv(), Trail()
        chains = []
        for _ in executor.solutions(env, trail):
            chains.append(
                (resolve(x, env).value, resolve(y, env).value, resolve(z, env).value)
            )
        assert sorted(chains) == [(1, 2, 3), (2, 3, 4)]

    def test_empty_body_yields_once(self, scope):
        executor = BodyExecutor(scope, [])
        assert sum(1 for _ in executor.solutions(BindEnv(), Trail())) == 1

    def test_builtin_between_scans(self, scope):
        self._fill(scope, "n", 1, [(1,), (5,), (9,)])
        x = Var("X")
        executor = BodyExecutor(
            scope, [sn(Literal("n", (x,))), sn(Literal(">", (x, Int(3))))]
        )
        env, trail = BindEnv(), Trail()
        values = [resolve(x, env).value for _ in executor.solutions(env, trail)]
        assert sorted(values) == [5, 9]

    def test_negated_literal(self, scope):
        self._fill(scope, "n", 1, [(1,), (2,)])
        self._fill(scope, "bad", 1, [(2,)])
        x = Var("X")
        executor = BodyExecutor(
            scope,
            [sn(Literal("n", (x,))), sn(Literal("bad", (x,), negated=True))],
        )
        env, trail = BindEnv(), Trail()
        values = [resolve(x, env).value for _ in executor.solutions(env, trail)]
        assert values == [1]

    def test_bindings_undone_between_solutions(self, scope):
        self._fill(scope, "e", 1, [(1,), (2,)])
        x = Var("X")
        executor = BodyExecutor(scope, [sn(Literal("e", (x,)))])
        env, trail = BindEnv(), Trail()
        iterator = executor.solutions(env, trail)
        next(iterator)
        first = resolve(x, env)
        next(iterator)
        second = resolve(x, env)
        assert first != second

    def test_backjumping_skips_unrelated_literal(self, scope):
        """b's alternatives can't fix c(X), so backjump lands on a."""
        self._fill(scope, "a", 1, [(1,), (2,)])
        self._fill(scope, "b", 1, [(10,), (20,), (30,)])
        self._fill(scope, "c", 1, [(2,)])
        x, y = Var("X"), Var("Y")
        body = [
            sn(Literal("a", (x,))),
            sn(Literal("b", (y,))),
            sn(Literal("c", (x,))),
        ]
        executor = BodyExecutor(scope, body, use_backjumping=True)
        env, trail = BindEnv(), Trail()
        count = sum(1 for _ in executor.solutions(env, trail))
        assert count == 3  # X=2 with each of b's three tuples

        plain = BodyExecutor(scope, body, use_backjumping=False)
        count_plain = sum(1 for _ in plain.solutions(BindEnv(), Trail()))
        assert count_plain == 3  # same answers, more work

    def test_backtrack_points_computed(self):
        x, y, z = Var("X"), Var("Y"), Var("Z")
        body = [
            sn(Literal("a", (x,))),
            sn(Literal("b", (y,))),
            sn(Literal("c", (x, z))),
        ]
        assert backtrack_points(body) == [-1, -1, 0]


class TestAggregateFolds:
    def test_all_functions(self):
        values = [Int(3), Int(1), Int(2)]
        assert fold_aggregate("min", values) == Int(1)
        assert fold_aggregate("max", values) == Int(3)
        assert fold_aggregate("sum", values) == Int(6)
        assert fold_aggregate("prod", values) == Int(6)
        assert fold_aggregate("count", values) == Int(3)
        assert fold_aggregate("any", values) == Int(3)  # first seen

    def test_mixed_int_double(self):
        assert fold_aggregate("sum", [Int(1), Double(0.5)]) == Double(1.5)

    def test_empty_group_count_zero(self):
        assert fold_aggregate("count", []) == Int(0)

    def test_empty_group_min_rejected(self):
        with pytest.raises(EvaluationError):
            fold_aggregate("min", [])

    def test_non_numeric_min_rejected(self):
        with pytest.raises(EvaluationError):
            fold_aggregate("min", [Atom("a")])


class TestAggregateConstraint:
    def _min_constraint(self):
        x, y, c = Var("X"), Var("Y"), Var("C")
        return AggregateConstraint(
            AggregateSelection("p", (x, y, c), (x, y), "min", c)
        )

    def test_better_fact_evicts_worse(self):
        constraint = self._min_constraint()
        relation = HashRelation("p", 3)
        worse, better = t(1, 2, 10), t(1, 2, 5)
        assert constraint.admit(relation, worse)
        relation.insert(worse)
        constraint.record(relation, worse)
        assert constraint.admit(relation, better)  # evicts `worse`
        relation.insert(better)
        constraint.record(relation, better)
        assert len(relation) == 1
        assert not relation.contains(worse)

    def test_worse_fact_rejected(self):
        constraint = self._min_constraint()
        relation = HashRelation("p", 3)
        best = t(1, 2, 5)
        constraint.admit(relation, best)
        relation.insert(best)
        constraint.record(relation, best)
        assert not constraint.admit(relation, t(1, 2, 9))

    def test_ties_kept(self):
        constraint = self._min_constraint()
        relation = HashRelation("p", 3)
        for fact in (t(1, 2, 5), t(1, 3, 5)):
            pass
        a, b = t(1, 2, 5), t(1, 2, 5)
        constraint.admit(relation, a)
        relation.insert(a)
        constraint.record(relation, a)
        tie = Tuple((Int(1), Int(2), Int(5)))
        assert constraint.admit(relation, tie)  # equal cost admitted

    def test_groups_independent(self):
        constraint = self._min_constraint()
        relation = HashRelation("p", 3)
        first_group = t(1, 2, 5)
        constraint.admit(relation, first_group)
        relation.insert(first_group)
        constraint.record(relation, first_group)
        other_group = t(9, 9, 100)
        assert constraint.admit(relation, other_group)

    def test_any_keeps_single_witness(self):
        x, y = Var("X"), Var("Y")
        constraint = AggregateConstraint(
            AggregateSelection("p", (x, y), (x,), "any", y)
        )
        relation = HashRelation("p", 2)
        first = t(1, 7)
        assert constraint.admit(relation, first)
        relation.insert(first)
        constraint.record(relation, first)
        assert not constraint.admit(relation, t(1, 8))
        assert constraint.admit(relation, t(2, 8))

    def test_admitted_fact_is_extracted_once(self, monkeypatch):
        """``record`` reuses what ``admit`` read from the same fact."""
        constraint = self._min_constraint()
        calls = []
        extract = constraint._extract
        monkeypatch.setattr(
            constraint, "_extract", lambda tup: calls.append(tup) or extract(tup)
        )
        relation = HashRelation("p", 3)
        for fact in (t(1, 2, 10), t(1, 2, 5), t(1, 3, 7)):
            assert constraint.admit(relation, fact)
            relation.insert(fact)
            constraint.record(relation, fact)
        assert len(calls) == 3
        assert not constraint.admit(relation, t(1, 2, 6))
        constraint.record(relation, t(1, 3, 7))  # not the fact last admitted
        assert len(calls) == 5

    def test_non_ground_group_or_target_is_not_constrained(self):
        constraint = self._min_constraint()
        relation = HashRelation("p", 3)
        best = t(1, 2, 5)
        constraint.admit(relation, best)
        relation.insert(best)
        constraint.record(relation, best)
        open_group = Tuple((Int(1), Var("Y"), Int(9)))
        open_cost = Tuple((Int(1), Int(2), Var("C")))
        for fact in (open_group, open_cost):
            assert constraint.admit(relation, fact)
            constraint.record(relation, fact)
        assert not constraint.admit(relation, t(1, 2, 9))

    def test_structured_pattern_is_matched_not_read_by_position(self):
        """``p(f(X), C)`` grouped by X: the grouping term is inside an
        argument, so the fact goes through the general matcher."""
        x, c = Var("X"), Var("C")
        constraint = AggregateConstraint(
            AggregateSelection("p", (Functor("f", (x,)), c), (x,), "min", c)
        )
        assert constraint._positions is None
        relation = HashRelation("p", 2)

        def fact(key, cost):
            return Tuple((Functor("f", (Int(key),)), Int(cost)))

        worse, better = fact(1, 10), fact(1, 5)
        assert constraint.admit(relation, worse)
        relation.insert(worse)
        constraint.record(relation, worse)
        assert constraint.admit(relation, better)
        assert not relation.contains(worse)
        assert constraint.admit(relation, Tuple((Atom("g"), Int(99))))  # no match


def _random_graph_program(edges):
    facts = " ".join(f"edge({a}, {b})." for a, b in sorted(set(edges)))
    return (
        facts
        + """
        module tc.
        export path(bf).
        %s
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        end_module.
        """
    )


class TestStrategyAgreement:
    @settings(max_examples=20, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=1,
            max_size=16,
        ),
        source=st.integers(0, 7),
    )
    def test_bsn_psn_pipelining_agree_on_reachability(self, edges, source):
        """On arbitrary small graphs (cycles included), BSN, PSN and the
        unrewritten bottom-up evaluation must compute identical answers."""
        answers = {}
        for flag in ("", "@psn.", "@no_rewriting."):
            session = Session()
            session.consult_string(_random_graph_program(edges) % flag)
            answers[flag] = sorted(
                a["Y"] for a in session.query(f"path({source}, Y)")
            )
        assert answers[""] == answers["@psn."] == answers["@no_rewriting."]

    @settings(max_examples=10, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=10,
        ),
        source=st.integers(0, 5),
    )
    def test_matches_networkx_reachability(self, edges, source):
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(6))
        graph.add_edges_from(edges)
        reachable = set(nx.descendants(graph, source))
        # Datalog's path(s, s) holds when s lies on a cycle (networkx's
        # descendants() always excludes the source)
        if any(
            nx.has_path(graph, successor, source)
            for successor in graph.successors(source)
        ):
            reachable.add(source)
        expected = sorted(reachable)
        session = Session()
        session.consult_string(_random_graph_program(edges) % "")
        got = sorted(a["Y"] for a in session.query(f"path({source}, Y)"))
        assert got == expected
