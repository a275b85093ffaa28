"""End-to-end integration tests: parser → optimizer → evaluator → answers.

Each test runs a complete program through a fresh :class:`Session`,
exercising the full stack the way the paper's own examples do.
"""

import pytest

from repro import Session
from repro.errors import ModuleError

CHAIN = "".join(f"edge({i}, {i+1}). " for i in range(1, 10))

TC_MODULE = """
module tc.
export path(bf, fb, ff, bb).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""


@pytest.fixture
def tc_session():
    session = Session()
    session.consult_string(CHAIN + TC_MODULE)
    return session


class TestTransitiveClosure:
    def test_bound_free(self, tc_session):
        answers = sorted(a["X"] for a in tc_session.query("path(3, X)"))
        assert answers == [4, 5, 6, 7, 8, 9, 10]

    def test_free_bound(self, tc_session):
        answers = sorted(a["X"] for a in tc_session.query("path(X, 4)"))
        assert answers == [1, 2, 3]

    def test_free_free(self, tc_session):
        assert len(tc_session.query("path(X, Y)").all()) == 45  # C(10,2)

    def test_bound_bound_hit(self, tc_session):
        assert len(tc_session.query("path(2, 7)").all()) == 1

    def test_bound_bound_miss(self, tc_session):
        assert len(tc_session.query("path(7, 2)").all()) == 0

    def test_repeated_variable_query(self, tc_session):
        """path(X, X): no cycles in a chain."""
        assert len(tc_session.query("path(X, X)").all()) == 0

    def test_magic_is_selective(self):
        """The magic rewriting must not compute unreachable facts."""
        unreachable_chain = "".join(
            f"edge({i}, {i+1}). " for i in range(100, 130)
        )
        source = "edge(1, 2). edge(2, 3). " + unreachable_chain + TC_MODULE
        session = Session()
        session.consult_string(source)
        session.query("path(1, X)").all()
        inserted = session.stats.facts_inserted
        session2 = Session()
        session2.consult_string(source)
        session2.query("path(X, Y)").all()
        assert inserted < session2.stats.facts_inserted / 5

    def test_cycle_terminates(self):
        session = Session()
        session.consult_string(
            "edge(1, 2). edge(2, 3). edge(3, 1)." + TC_MODULE
        )
        answers = sorted(a["X"] for a in session.query("path(1, X)"))
        assert answers == [1, 2, 3]


class TestRewritingVariants:
    GRAPH = "edge(1, 2). edge(2, 3). edge(3, 4). edge(2, 4). edge(4, 5)."

    def _run(self, flag):
        session = Session()
        session.consult_string(
            self.GRAPH
            + f"""
            module tc.
            export path(bf).
            {flag}
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        return sorted(a["Y"] for a in session.query("path(2, Y)"))

    def test_all_techniques_agree(self):
        expected = [3, 4, 4, 5, 5, 5]  # set semantics: dedup below
        results = {
            flag: self._run(flag)
            for flag in (
                "",  # default: supplementary magic
                "@magic.",
                "@supplementary_magic_goalid.",
                "@no_rewriting.",
                "@context_factoring.",
            )
        }
        baseline = results[""]
        assert baseline == sorted(set([3, 4, 5]))
        for flag, answers in results.items():
            assert answers == baseline, f"{flag} disagrees"

    def test_right_linear_factoring_agrees(self):
        def run(flag):
            session = Session()
            session.consult_string(
                self.GRAPH
                + f"""
                module tc.
                export path(bf).
                {flag}
                path(X, Y) :- edge(X, Y).
                path(X, Y) :- edge(X, Z), path(Z, Y).
                end_module.
                """
            )
            return sorted(a["Y"] for a in session.query("path(1, Y)"))

        assert run("@context_factoring.") == run("")

    def test_psn_strategy_agrees(self):
        session = Session(compiled=None)  # PSN is the interpreter's loop
        session.consult_string(
            self.GRAPH
            + """
            module tc.
            export path(bf).
            @psn.
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        assert sorted(a["Y"] for a in session.query("path(1, Y)")) == [2, 3, 4, 5]


class TestMutualRecursion:
    def test_even_odd_chain(self):
        session = Session()
        session.consult_string(
            "next(0, 1). next(1, 2). next(2, 3). next(3, 4). next(4, 5)."
            """
            module parity.
            export even(b).
            export odd(b).
            even(0).
            even(X) :- next(Y, X), odd(Y).
            odd(X) :- next(Y, X), even(Y).
            end_module.
            """
        )
        assert len(session.query("even(4)").all()) == 1
        assert len(session.query("even(3)").all()) == 0
        assert len(session.query("odd(3)").all()) == 1

    def test_same_generation(self):
        session = Session()
        session.consult_string(
            """
            parent(a, b). parent(a, c).
            parent(b, d). parent(b, e). parent(c, f).

            module sg.
            export sg(bf).
            sg(X, X) :- person(X).
            sg(X, Y) :- parent(PX, X), sg(PX, PY), parent(PY, Y).
            end_module.

            person(a). person(b). person(c). person(d). person(e). person(f).
            """
        )
        answers = sorted(a["Y"] for a in session.query("sg(d, Y)"))
        assert answers == ["d", "e", "f"]


class TestNegation:
    def test_stratified_negation(self):
        session = Session()
        session.consult_string(
            """
            edge(1, 2). edge(2, 3).
            node(1). node(2). node(3). node(4).

            module unreach.
            export unreachable(f).
            export reach(f).
            reach(1).
            reach(Y) :- reach(X), edge(X, Y).
            unreachable(X) :- node(X), not reach(X).
            end_module.
            """
        )
        answers = sorted(a["X"] for a in session.query("unreachable(X)"))
        assert answers == [4]

    def test_negation_of_base_relation(self):
        session = Session()
        session.consult_string(
            """
            likes(john, pizza). likes(mary, sushi).
            person(john). person(mary). person(bob).

            module m.
            export nopizza(f).
            nopizza(P) :- person(P), not likes(P, pizza).
            end_module.
            """
        )
        answers = sorted(a["P"] for a in session.query("nopizza(P)"))
        assert answers == ["bob", "mary"]

    def test_win_move_acyclic_via_ordered_search(self):
        """The classic modularly stratified win/move game."""
        session = Session()
        session.consult_string(
            """
            move(a, b). move(b, c). move(a, c). move(c, d).

            module game.
            export win(b).
            @ordered_search.
            win(X) :- move(X, Y), not win(Y).
            end_module.
            """
        )
        # d has no moves: lost. c -> d(lost): won. b -> c(won): lost.
        # a -> b(lost): won.
        assert len(session.query("win(a)").all()) == 1
        assert len(session.query("win(b)").all()) == 0
        assert len(session.query("win(c)").all()) == 1
        assert len(session.query("win(d)").all()) == 0


class TestAggregation:
    def test_count_per_group(self):
        session = Session()
        session.consult_string(
            """
            works(ann, sales). works(bob, sales). works(cal, eng).

            module m.
            export headcount(ff).
            headcount(D, count(<E>)) :- works(E, D).
            end_module.
            """
        )
        rows = {(a["D"], a.tuple.args[1].value) for a in session.query("headcount(D, N)")}
        assert rows == {("sales", 2), ("eng", 1)}

    def test_sum_and_max(self):
        session = Session()
        session.consult_string(
            """
            sale(east, 10). sale(east, 5). sale(west, 7).

            module m.
            export totals(ff).
            export peak(ff).
            totals(R, sum(<V>)) :- sale(R, V).
            peak(R, max(<V>)) :- sale(R, V).
            end_module.
            """
        )
        totals = {(a["R"], a["T"]) for a in session.query("totals(R, T)")}
        assert totals == {("east", 15), ("west", 7)}
        peaks = {(a["R"], a["V"]) for a in session.query("peak(R, V)")}
        assert peaks == {("east", 10), ("west", 7)}

    def test_aggregation_over_recursion(self):
        """min over a recursive predicate: aggregation stratum follows the
        recursive stratum."""
        session = Session()
        session.consult_string(
            """
            edge(a, b, 1). edge(b, c, 2). edge(a, c, 9).

            module m.
            export best(bbf).
            cost(X, Y, C) :- edge(X, Y, C).
            cost(X, Y, C) :- edge(X, Z, C1), cost(Z, Y, C2), C = C1 + C2.
            best(X, Y, min(<C>)) :- cost(X, Y, C).
            end_module.
            """
        )
        answers = session.query("best(a, c, C)").all()
        assert [a["C"] for a in answers] == [3]

    def test_figure_3_shortest_path_full(self):
        """The complete paper Figure 3 program on a cyclic graph."""
        session = Session()
        session.consult_string(
            """
            edge(a, b, 1). edge(b, c, 2). edge(a, c, 5). edge(c, a, 1).
            edge(c, d, 1).

            module s_p.
            export s_p(bfff, ffff).
            @aggregate_selection p(X, Y, P, C) (X, Y) min(C).
            @aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
            s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
            s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
            p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                               append([edge(Z, Y)], P, P1), C1 = C + EC.
            p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
            end_module.
            """
        )
        costs = {a["Y"]: a["C"] for a in session.query("s_p(a, Y, P, C)")}
        assert costs == {"a": 4, "b": 1, "c": 3, "d": 4}

    def test_aggregate_selection_prunes(self):
        """With min-cost selection the relation keeps only optimal facts."""
        session = Session()
        session.consult_string(
            """
            edge(a, b, 5). edge(a, b, 2). edge(a, b, 9).

            module m.
            export cheapest(bff).
            @aggregate_selection c(X, Y, C) (X, Y) min(C).
            c(X, Y, C) :- edge(X, Y, C).
            cheapest(X, Y, C) :- c(X, Y, C).
            end_module.
            """
        )
        answers = session.query("cheapest(a, Y, C)").all()
        assert [(a["Y"], a["C"]) for a in answers] == [("b", 2)]


class TestAnswerShapes:
    """A flat goal meets ground facts position by position (no binding
    environment); every other goal/fact pair unifies.  Same answers."""

    FACTS = "e(1, 2). e(1, f(3)). e(2, 2). e(3, 1). e(1, Open)."

    def _session(self):
        session = Session()
        session.consult_string(self.FACTS)
        return session

    def test_flat_goal_over_ground_and_open_facts(self):
        answers = self._session().query("e(1, Y)").all()
        assert [str(a.tuple) for a in answers[:2]] == ["(1, 2)", "(1, f(3))"]
        assert [a["Y"] for a in answers[:1]] == [2]
        assert len(answers) == 3  # ... and the open fact, Y left unbound
        assert not answers[2].tuple.is_ground()

    def test_repeated_and_nested_variables_still_unify(self):
        session = self._session()
        assert sorted(session.query("e(X, X)").tuples()) == [(1, 1), (2, 2)]
        nested = session.query("e(1, f(Z))").all()
        assert sorted(str(a.term("Z")) for a in nested)[0] == "3"
        assert len(nested) == 2

    def test_anonymous_positions_are_not_reported(self):
        answers = self._session().query_values("e", 2, None).all()
        assert [a.variables() for a in answers] == [{}]
        assert [str(a.tuple) for a in answers] == ["(2, 2)"]

    def test_an_answer_owns_its_tuple(self):
        session = self._session()
        answer = session.query("e(3, Y)").all()[0]
        session.relation("copy", 2).insert(answer.tuple)
        # inserting it elsewhere must not disturb the stored fact's marks
        assert sorted(session.query("e(3, Y)").tuples()) == [(3, 1)]
        session.delete("e", 3, 1)
        assert session.query("e(3, Y)").all() == []
        assert sorted(session.query("copy(X, Y)").tuples()) == [(3, 1)]


class TestNonGroundFacts:
    def test_universal_fact_answers_any_query(self):
        session = Session()
        session.consult_string(
            """
            module m.
            export ok(b).
            ok(X) :- always(X).
            end_module.

            always(Anything).
            """
        )
        assert len(session.query("ok(42)").all()) == 1
        assert len(session.query("ok(john)").all()) == 1

    def test_partially_ground_fact(self):
        session = Session()
        session.consult_string("pair(1, X).")
        answers = session.query("pair(1, 7)").all()
        assert len(answers) == 1
        assert len(session.query("pair(2, 7)").all()) == 0

    def test_non_ground_derived_facts(self):
        session = Session()
        session.consult_string(
            """
            module m.
            export p(ff).
            p(X, Y) :- q(X, Y).
            end_module.

            q(1, Z).
            """
        )
        answers = session.query("p(1, W)").all()
        assert len(answers) == 1


class TestBuiltinsInRules:
    def test_arithmetic_chain(self):
        session = Session()
        session.consult_string(
            """
            base(1). base(2). base(3).

            module m.
            export doubled(f).
            doubled(Y) :- base(X), Y = X * 2.
            end_module.
            """
        )
        assert sorted(a["Y"] for a in session.query("doubled(Y)")) == [2, 4, 6]

    def test_comparison_filter(self):
        session = Session()
        session.consult_string(
            """
            n(1). n(5). n(9).

            module m.
            export big(f).
            big(X) :- n(X), X > 3.
            end_module.
            """
        )
        assert sorted(a["X"] for a in session.query("big(X)")) == [5, 9]

    def test_list_builtins_in_recursion(self):
        session = Session()
        session.consult_string(
            """
            edge(1, 2). edge(2, 3).

            module m.
            export trail(bff).
            trail(X, Y, [X, Y]) :- edge(X, Y).
            trail(X, Y, P) :- edge(X, Z), trail(Z, Y, P0), append([X], P0, P).
            end_module.
            """
        )
        answers = session.query("trail(1, 3, P)").all()
        assert len(answers) == 1
        assert answers[0]["P"] == [1, 2, 3]


class TestModuleInteraction:
    def test_module_calls_module(self):
        session = Session()
        session.consult_string(
            """
            edge(1, 2). edge(2, 3). edge(3, 4).

            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.

            module far.
            export far_from_one(f).
            far_from_one(Y) :- path(1, Y), Y > 2.
            end_module.
            """
        )
        assert sorted(a["Y"] for a in session.query("far_from_one(Y)")) == [3, 4]

    def test_pipelined_calls_materialized(self):
        session = Session()
        session.consult_string(
            """
            edge(1, 2). edge(2, 3).

            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.

            module wrap.
            export wpath(bf).
            @pipelining.
            wpath(X, Y) :- path(X, Y).
            end_module.
            """
        )
        assert sorted(a["Y"] for a in session.query("wpath(1, Y)")) == [2, 3]

    def test_materialized_calls_pipelined(self):
        session = Session()
        session.consult_string(
            """
            item(1). item(2). item(3).

            module double.
            export twice(bf).
            @pipelining.
            twice(X, Y) :- Y = X * 2.
            end_module.

            module user.
            export result(f).
            result(Y) :- item(X), twice(X, Y).
            end_module.
            """
        )
        assert sorted(a["Y"] for a in session.query("result(Y)")) == [2, 4, 6]

    def test_export_conflict_rejected(self):
        session = Session()
        with pytest.raises(ModuleError):
            session.consult_string(
                """
                module a.
                export p(f).
                p(X) :- q(X).
                end_module.

                module b.
                export p(f).
                p(X) :- r(X).
                end_module.
                """
            )

    def test_export_of_undefined_pred_rejected(self):
        session = Session()
        with pytest.raises(ModuleError):
            session.consult_string(
                "module m. export ghost(f). p(X) :- q(X). end_module."
            )


class TestPipelining:
    def test_pipelined_tc_right_recursive(self):
        session = Session()
        session.consult_string(
            """
            edge(1, 2). edge(2, 3). edge(3, 4).

            module tc.
            export path(bf).
            @pipelining.
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        assert sorted(a["Y"] for a in session.query("path(1, Y)")) == [2, 3, 4]

    def test_pipelined_duplicates_not_eliminated(self):
        """Pipelining does not store or dedup: two proofs, two answers."""
        session = Session()
        session.consult_string(
            """
            e(1, 2). m(2). m2(2).

            module m_.
            export p(b).
            @pipelining.
            p(X) :- e(Y, X), m(X).
            p(X) :- e(Y, X), m2(X).
            end_module.
            """
        )
        assert len(session.query("p(2)").all()) == 2

    def test_pipelined_negation(self):
        session = Session()
        session.consult_string(
            """
            good(1). good(2). all_(1). all_(2). all_(3).

            module m.
            export bad(f).
            @pipelining.
            bad(X) :- all_(X), not good(X).
            end_module.
            """
        )
        assert sorted(a["X"] for a in session.query("bad(X)")) == [3]

    def test_pipelined_first_answer_without_full_computation(self):
        session = Session()
        lines = ["edge(%d, %d)." % (i, i + 1) for i in range(200)]
        session.consult_string(
            "\n".join(lines)
            + """
            module tc.
            export path(bf).
            @pipelining.
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        result = session.query("path(0, Y)")
        first = result.get_next()
        assert first is not None
        # the first proof needed a single inference, not the whole closure
        assert session.stats.inferences <= 5


class TestSaveModule:
    def test_answers_accumulate_and_reuse(self):
        session = Session()
        session.consult_string(
            "".join(f"edge({i}, {i+1}). " for i in range(50))
            + """
            module tc.
            export path(bf).
            @save_module.
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        assert len(session.query("path(25, Y)").all()) == 25
        first_cost = session.stats.rule_applications
        # second call hits retained state: answers to path(30, _) were
        # already derived while answering path(25, _)
        assert len(session.query("path(30, Y)").all()) == 20
        second_cost = session.stats.rule_applications - first_cost
        assert second_cost < first_cost / 2

    def test_fresh_module_recomputes(self):
        session = Session()
        session.consult_string(
            "".join(f"edge({i}, {i+1}). " for i in range(50))
            + TC_MODULE
        )
        session.query("path(25, Y)").all()
        first_cost = session.stats.rule_applications
        session.query("path(25, Y)").all()
        second_cost = session.stats.rule_applications - first_cost
        assert second_cost >= first_cost * 0.8  # no retained state


class TestMultisetSemantics:
    def test_multiset_counts_derivations(self):
        session = Session()
        session.consult_string(
            """
            parent(a, b). parent(c, b).

            module m.
            export haskid(f).
            @multiset haskid.
            haskid(yes) :- parent(X, Y).
            end_module.
            """
        )
        # two derivations of haskid(yes), both kept under multiset semantics
        assert len(session.query("haskid(Z)").all()) == 2

    def test_set_semantics_dedups(self):
        session = Session()
        session.consult_string(
            """
            parent(a, b). parent(c, b).

            module m.
            export haskid(f).
            haskid(yes) :- parent(X, Y).
            end_module.
            """
        )
        assert len(session.query("haskid(Z)").all()) == 1
