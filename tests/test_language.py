"""Unit tests for the lexer and parser."""

import random

import pytest

from repro import Session
from repro.errors import ParseError
from repro.language import (
    Aggregation,
    Literal,
    Rule,
    parse_module,
    parse_program,
    parse_query,
    tokenize,
)
from repro.terms import (
    Atom, Double, Functor, Int, NIL, Str, Var, list_elements, make_list,
)


class TestLexer:
    def test_basic_clause(self):
        kinds = [t.kind for t in tokenize("path(X, Y) :- edge(X, Y).")]
        assert kinds == [
            "ident", "punct", "variable", "punct", "variable", "punct",
            "punct", "ident", "punct", "variable", "punct", "variable",
            "punct", "end", "eof",
        ]

    def test_numbers(self):
        tokens = tokenize("f(1, 2.5, 3, 1e3).")
        texts = [(t.kind, t.text) for t in tokens if t.kind in ("integer", "float")]
        assert texts == [
            ("integer", "1"), ("float", "2.5"), ("integer", "3"), ("float", "1e3")
        ]

    def test_clause_dot_vs_decimal_point(self):
        tokens = tokenize("f(3.5).")
        assert [t.kind for t in tokens] == ["ident", "punct", "float", "punct", "end", "eof"]

    def test_line_comment(self):
        tokens = tokenize("p(1). % comment\nq(2).")
        assert sum(1 for t in tokens if t.kind == "end") == 2

    def test_block_comment(self):
        tokens = tokenize("p(1). /* multi\nline */ q(2).")
        assert sum(1 for t in tokens if t.kind == "ident") == 2

    def test_unterminated_block_comment(self):
        with pytest.raises(ParseError):
            tokenize("p(1). /* never closed")

    def test_string_with_escapes(self):
        tokens = tokenize('p("a\\"b\\n").')
        assert tokens[2].text == 'a"b\n'

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('p("oops).')

    def test_operators_greedy(self):
        texts = [t.text for t in tokenize("X :- Y <= Z >= W == V.") if t.kind == "punct"]
        assert texts == [":-", "<=", ">=", "=="]

    def test_position_tracking(self):
        tokens = tokenize("p(1).\nq(2).")
        q_token = [t for t in tokens if t.text == "q"][0]
        assert q_token.line == 2 and q_token.column == 1


    def test_positions_after_comments_and_blank_lines(self):
        source = "p(1). % c\n\n  /* a\n b */ q(X,\n\tYy2) .\n"
        found = {t.text: (t.line, t.column) for t in tokenize(source)}
        assert found["p"] == (1, 1)
        assert found["q"] == (4, 7)
        assert found["X"] == (4, 9)
        assert found["Yy2"] == (5, 2)
        assert tokenize(source)[-1].kind == "eof"
        assert (tokenize(source)[-1].line, tokenize(source)[-1].column) == (6, 1)

    def test_number_shapes(self):
        tokens = tokenize("f(.5, 1.e, 2E-3, 7e+, 12abc, 3.4.5).")
        texts = [(t.kind, t.text) for t in tokens if t.kind != "punct"]
        assert texts == [
            ("ident", "f"), ("float", ".5"),
            ("integer", "1"), ("end", "."), ("ident", "e"),
            ("float", "2E-3"),
            ("integer", "7"), ("ident", "e"),
            ("integer", "12"), ("ident", "abc"),
            ("float", "3.4"), ("float", ".5"),
            ("end", "."), ("eof", ""),
        ]

    def test_error_positions(self):
        with pytest.raises(ParseError) as unexpected:
            tokenize("p(1).\n  q(#).")
        assert (unexpected.value.line, unexpected.value.column) == (2, 5)
        with pytest.raises(ParseError) as open_comment:
            tokenize("p(1). /* never\nclosed")
        assert "unterminated block comment" in str(open_comment.value)
        assert (open_comment.value.line, open_comment.value.column) == (2, 7)
        with pytest.raises(ParseError) as open_string:
            tokenize('p("ab\ncd").')
        assert "unterminated string literal" in str(open_string.value)
        assert (open_string.value.line, open_string.value.column) == (1, 6)


class TestParserClauses:
    def test_fact(self):
        program = parse_program("edge(1, 2).")
        assert len(program.facts) == 1
        fact = program.facts[0]
        assert fact.head.pred == "edge"
        assert fact.head.args == (Int(1), Int(2))

    def test_fact_with_atoms_strings(self):
        program = parse_program('person(john, "Main Street", 3.5).')
        args = program.facts[0].head.args
        assert args == (Atom("john"), Str("Main Street"), Double(3.5))

    def test_non_ground_fact(self):
        """CORAL allows facts containing (universally quantified) variables."""
        program = parse_program("always(X).")
        assert isinstance(program.facts[0].head.args[0], Var)

    def test_rule_inside_module(self):
        module = parse_module(
            """
            module tc.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        assert module.name == "tc"
        assert len(module.rules) == 2
        assert module.exports[0].pred == "path"
        assert module.exports[0].forms == ("bf",)

    def test_variable_scoping_within_clause(self):
        module = parse_module(
            "module m. p(X, Y) :- q(X, Z), r(Z, Y). end_module."
        )
        rule = module.rules[0]
        z_in_q = rule.body[0].args[1]
        z_in_r = rule.body[1].args[0]
        assert z_in_q is z_in_r
        assert rule.head.args[0] is rule.body[0].args[0]

    def test_variables_fresh_across_clauses(self):
        module = parse_module("module m. p(X) :- q(X). r(X) :- s(X). end_module.")
        assert module.rules[0].head.args[0] is not module.rules[1].head.args[0]

    def test_underscore_always_fresh(self):
        module = parse_module("module m. p(_, _) :- q(_). end_module.")
        rule = module.rules[0]
        assert rule.head.args[0] is not rule.head.args[1]

    def test_negated_literal(self):
        module = parse_module("module m. p(X) :- q(X), not r(X). end_module.")
        assert module.rules[0].body[1].negated

    def test_comparison_literals(self):
        module = parse_module("module m. p(X) :- q(X), X < 5, X != 2. end_module.")
        body = module.rules[0].body
        assert body[1].pred == "<"
        assert body[2].pred == "!="

    def test_prolog_spelling_of_lte(self):
        module = parse_module("module m. p(X) :- q(X), X =< 5. end_module.")
        assert module.rules[0].body[1].pred == "<="

    def test_arithmetic_expression(self):
        module = parse_module("module m. p(C1) :- q(C, EC), C1 = C + EC * 2. end_module.")
        assign = module.rules[0].body[1]
        assert assign.pred == "="
        expr = assign.args[1]
        assert isinstance(expr, Functor) and expr.name == "+"
        assert isinstance(expr.args[1], Functor) and expr.args[1].name == "*"

    def test_negative_number_literal(self):
        program = parse_program("temp(-5).")
        assert program.facts[0].head.args[0] == Int(-5)

    def test_lists(self):
        program = parse_program("l([1, 2 | X]).")
        term = program.facts[0].head.args[0]
        assert isinstance(term, Functor) and term.name == "."

    def test_empty_list(self):
        program = parse_program("l([]).")
        assert program.facts[0].head.args[0] == NIL

    def test_proper_list_round_trip(self):
        program = parse_program("l([1, 2, 3]).")
        elements = list_elements(program.facts[0].head.args[0])
        assert elements == [Int(1), Int(2), Int(3)]

    def test_zero_arity_predicate(self):
        module = parse_module("module m. go :- p(1). end_module.")
        assert module.rules[0].head.pred == "go"
        assert module.rules[0].head.args == ()


class TestParserAggregation:
    def test_head_aggregation_figure_3(self):
        module = parse_module(
            "module m. s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C). end_module."
        )
        rule = module.rules[0]
        assert len(rule.head_aggregates) == 1
        position, aggregation = rule.head_aggregates[0]
        assert position == 2
        assert aggregation.function == "min"
        assert isinstance(aggregation.expr, Var)

    def test_count_aggregation(self):
        module = parse_module(
            "module m. emps(D, count(<E>)) :- works(E, D). end_module."
        )
        assert module.rules[0].head_aggregates[0][1].function == "count"

    def test_fact_with_aggregation_rejected(self):
        with pytest.raises(ParseError):
            parse_module("module m. p(min(<C>)). end_module.")


class TestParserAnnotations:
    def test_aggregate_selection_figure_3(self):
        module = parse_module(
            """
            module s_p.
            @aggregate_selection p(X, Y, P, C) (X, Y) min(C).
            p(X, Y) :- e(X, Y).
            end_module.
            """
        )
        selection = module.aggregate_selections[0]
        assert selection.pred == "p"
        assert selection.arity == 4
        assert [v.name for v in selection.group_vars] == ["X", "Y"]
        assert selection.function == "min"
        assert isinstance(selection.target, Var)

    def test_aggregate_selection_any(self):
        module = parse_module(
            """
            module m.
            @aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
            p(X, Y) :- e(X, Y).
            end_module.
            """
        )
        assert module.aggregate_selections[0].function == "any"

    def test_make_index_paper_example(self):
        module = parse_module(
            """
            module m.
            @make_index emp(Name, addr(Street, City)) (Name, City).
            p(X) :- emp(X, A).
            end_module.
            """
        )
        annotation = module.index_annotations[0]
        assert annotation.pred == "emp"
        assert annotation.arity == 2
        assert len(annotation.key_terms) == 2

    def test_module_flags(self):
        module = parse_module(
            """
            module m.
            @pipelining.
            @save_module.
            @multiset p.
            p(X) :- q(X).
            end_module.
            """
        )
        assert module.has_flag("pipelining")
        assert module.has_flag("save_module")
        assert module.flag("multiset").argument == "p"

    def test_unknown_annotation_rejected(self):
        with pytest.raises(ParseError):
            parse_module("module m. @frobnicate. p(X) :- q(X). end_module.")


class TestParserQueries:
    def test_prefix_query(self):
        program = parse_program("?- path(1, X).")
        assert program.queries[0].literal.pred == "path"

    def test_suffix_query(self):
        program = parse_program("path(1, X)?")
        assert program.queries[0].literal.pred == "path"

    def test_parse_query_helper(self):
        assert parse_query("path(1, X)").literal.pred == "path"
        assert parse_query("?- path(1, X).").literal.args[0] == Int(1)

    def test_terminator_comes_from_the_tokens(self):
        """A trailing comment does not swallow the query's full stop."""
        for text in ("p(X) % why", "p(X). % why", "?- p(X) /* c */",
                     "p(X)?", "p(X)? % why\n", "?- p(X)"):
            assert str(parse_query(text).literal) == "p(X)", text

    def test_one_query_only_and_positions_in_the_text_given(self):
        with pytest.raises(ParseError, match="exactly one query"):
            parse_query("p(X). q(Y).")
        with pytest.raises(ParseError) as error:
            parse_query("p(1, ")
        assert (error.value.line, error.value.column) == (1, 6)


class TestNegativeLiterals:
    """``-`` directly before a number is part of the constant wherever a
    term may stand; before anything else it is ``0 - ...``."""

    def test_queries_and_nested_arguments(self):
        assert parse_query("p(-1)").literal.args == (Int(-1),)
        assert parse_query("r(-2.5)").literal.args == (Double(-2.5),)
        fact = parse_program("p(f(-3), [-4], -5e-3).").facts[0]
        assert fact.head.args == (
            Functor("f", (Int(-3),)), make_list([Int(-4)]), Double(-0.005)
        )

    def test_minus_before_anything_else_subtracts_from_zero(self):
        module = parse_module(
            "module m. p(Y) :- q(X), Y = 2 * -3 - -X - -(1 + X) - 4. end_module."
        )
        assign = module.rules[0].body[1]
        assert str(assign.args[1]) == (
            "((((2 * -3) - (0 - X)) - (0 - (1 + X))) - 4)"
        )

    def test_queries_and_rule_bodies_find_negative_facts(self):
        session = Session()
        session.consult_string(
            """
            p(-1). p(1). r(-2.5). r(2.5).
            module m.
            export q(f).
            q(X) :- p(-1), X = yes.
            end_module.
            """
        )
        assert len(session.query("p(-1)").all()) == 1
        assert len(session.query("r(-2.5)").all()) == 1
        assert [a["X"] for a in session.query("q(X)").all()] == ["yes"]


#: what the generated strings are made of: everything the lexer escapes,
#: comment and clause punctuation, and a non-ASCII letter
_STRING_CHARS = ['a', 'Z', ' ', '"', '\\', '\n', '\t', '%', '/*', '.', ')',
                 "'", 'é']
_ATOMS = ["a", "john", "x_1", "end_of_list", "not", "min", "module", "żółw"]


def _ground_term(rng, depth=0):
    choice = rng.randrange(7 if depth < 3 else 4)
    if choice == 0:
        return Int(rng.choice([rng.randint(-99, 99),
                               rng.randint(-10**30, 10**30)]))
    if choice == 1:
        return Double(rng.uniform(-1000, 1000) * 10.0 ** rng.randint(-30, 30))
    if choice == 2:
        size = rng.randrange(6)
        return Str("".join(rng.choice(_STRING_CHARS) for _ in range(size)))
    if choice == 3:
        return Atom(rng.choice(_ATOMS))
    parts = [_ground_term(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    if choice == 4:
        return Functor(rng.choice(_ATOMS), tuple(parts))
    if choice == 5:
        return make_list(parts)
    return make_list(parts[:-1], parts[-1])  # a list with a tail


class TestPrintedTermsReparse:
    """``str`` of a ground term is source text for the same term."""

    def test_seeded_facts_and_query_arguments(self):
        rng = random.Random(25)
        for _ in range(1500):
            args = tuple(_ground_term(rng) for _ in range(rng.randint(1, 3)))
            fact = Rule(Literal("p", args))
            assert parse_program(str(fact)).facts == [fact], str(fact)
            for arg in args:
                query = parse_query(f"q({arg})")
                assert query.literal.args == (arg,), str(arg)

    def test_strings_print_escaped(self):
        assert str(Str('O"Brien\\\n\t')) == '"O\\"Brien\\\\\\n\\t"'

    def test_dump_relation_consults_again(self, tmp_path):
        session = Session()
        session.consult_string(
            'p(-1, "O\\"Brien"). p(2, "back\\\\slash\\ttab").'
            ' p(3, f([-4.5e-7, "%"], b)).'
        )
        path = str(tmp_path / "p.facts")
        assert session.dump_relation("p", 2, path) == 3
        again = Session()
        again.consult(path)
        assert sorted(map(str, again.query("p(X, Y)").tuples())) == sorted(
            map(str, session.query("p(X, Y)").tuples())
        )


class TestParserErrors:
    def test_missing_end_module(self):
        with pytest.raises(ParseError):
            parse_program("module m. p(X) :- q(X).")

    def test_rule_outside_module_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- q(X).")

    def test_bad_query_form(self):
        with pytest.raises(ParseError):
            parse_module("module m. export p(bx). p(1). end_module.")

    def test_inconsistent_query_form_lengths(self):
        with pytest.raises(ParseError):
            parse_module("module m. export p(bf, b). p(1, 2). end_module.")

    def test_error_carries_position(self):
        try:
            parse_program("edge(1,\n  &2).")
        except ParseError as error:
            assert error.line == 2
        else:
            pytest.fail("expected ParseError")

    def test_figure_3_shortest_path_parses(self):
        """The complete program from the paper's Figure 3."""
        module = parse_module(
            """
            module s_p.
            export s_p(bfff, ffff).
            @aggregate_selection p(X, Y, P, C) (X, Y) min(C).
            s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
            s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
            p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                               append([edge(Z, Y)], P, P1), C1 = C + EC.
            p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
            end_module.
            """
        )
        assert module.name == "s_p"
        assert len(module.rules) == 4
        assert module.exports[0].forms == ("bfff", "ffff")
