"""Unit tests for builtin predicates."""

import io
import itertools
import random

import pytest

from repro.builtins import default_registry, eval_arith
from repro.builtins import io as coral_io
from repro.errors import EvaluationError, InstantiationError
from repro.terms import (
    Atom,
    BindEnv,
    Double,
    Functor,
    Int,
    NIL,
    Str,
    Trail,
    Var,
    canonicalize_term,
    cons,
    list_elements,
    make_list,
    resolve,
    unify,
)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def call(registry, name, args, env=None):
    """Collect all solutions of a builtin as resolved argument tuples."""
    env = env or BindEnv()
    trail = Trail()
    builtin = registry.lookup(name, len(args))
    assert builtin is not None, f"no builtin {name}/{len(args)}"
    solutions = []
    mark = trail.mark()
    for _ in builtin.impl(args, env, trail):
        solutions.append(tuple(resolve(a, env) for a in args))
    trail.undo_to(mark)
    return solutions


class TestArithmetic:
    def test_eval_simple(self):
        assert eval_arith(Int(3), None) == 3
        assert eval_arith(Double(2.5), None) == 2.5

    def test_eval_expression_tree(self):
        expr = Functor("+", (Int(1), Functor("*", (Int(2), Int(3)))))
        assert eval_arith(expr, None) == 7

    def test_eval_under_bindings(self):
        x = Var("X")
        env = BindEnv()
        env.bind(x, Int(10), None)
        assert eval_arith(Functor("+", (x, Int(5))), env) == 15

    def test_eval_division_by_zero(self):
        with pytest.raises(EvaluationError):
            eval_arith(Functor("/", (Int(1), Int(0))), None)

    def test_eval_unbound_raises_instantiation(self):
        with pytest.raises(InstantiationError):
            eval_arith(Functor("+", (Var("X"), Int(1))), BindEnv())

    def test_eval_non_arith_returns_none(self):
        assert eval_arith(Atom("a"), None) is None
        assert eval_arith(Functor("edge", (Int(1), Int(2))), None) is None

    def test_min_max_mod(self):
        assert eval_arith(Functor("min", (Int(3), Int(5))), None) == 3
        assert eval_arith(Functor("max", (Int(3), Int(5))), None) == 5
        assert eval_arith(Functor("mod", (Int(7), Int(3))), None) == 1


class TestComparisons:
    def test_less_than(self, registry):
        assert call(registry, "<", (Int(1), Int(2)))
        assert not call(registry, "<", (Int(2), Int(1)))

    def test_comparison_evaluates_arithmetic(self, registry):
        expr = Functor("+", (Int(1), Int(1)))
        assert call(registry, ">=", (expr, Int(2)))

    def test_numeric_cross_type(self, registry):
        assert call(registry, "==", (Int(1), Double(1.0)))

    def test_string_comparison(self, registry):
        assert call(registry, "<", (Str("a"), Str("b")))

    def test_atom_comparison(self, registry):
        assert call(registry, "!=", (Atom("a"), Atom("b")))

    def test_mixed_type_comparison_rejected(self, registry):
        with pytest.raises(EvaluationError):
            call(registry, "<", (Int(1), Atom("a")))

    def test_unbound_comparison_raises(self, registry):
        with pytest.raises(InstantiationError):
            call(registry, "<", (Var("X"), Int(1)))


class TestAssignment:
    def test_binds_computed_value(self, registry):
        """The Figure 3 idiom: C1 = C + EC."""
        c1 = Var("C1")
        env = BindEnv()
        solutions = call(
            registry, "=", (c1, Functor("+", (Int(3), Int(4)))), env=env
        )
        assert len(solutions) == 1
        assert solutions[0][0] == Int(7)  # C1 bound to the computed value

    def test_plain_unification(self, registry):
        x = Var("X")
        solutions = call(registry, "=", (x, Functor("f", (Int(1),))))
        assert solutions == [(Functor("f", (Int(1),)),) * 2]

    def test_failure_yields_nothing(self, registry):
        assert call(registry, "=", (Int(1), Int(2))) == []

    def test_arith_on_left_side(self, registry):
        solutions = call(registry, "=", (Functor("*", (Int(2), Int(3))), Var("X")))
        assert len(solutions) == 1
        assert solutions[0][1] == Int(6)  # X bound to the computed value


class TestAppend:
    def test_forward_mode(self, registry):
        result = Var("R")
        solutions = call(
            registry,
            "append",
            (make_list([Int(1)]), make_list([Int(2), Int(3)]), result),
        )
        assert len(solutions) == 1
        assert list_elements(solutions[0][2]) == [Int(1), Int(2), Int(3)]

    def test_empty_front(self, registry):
        solutions = call(registry, "append", (NIL, make_list([Int(1)]), Var("R")))
        assert list_elements(solutions[0][2]) == [Int(1)]

    def test_backward_mode_enumerates_splits(self, registry):
        whole = make_list([Int(1), Int(2), Int(3)])
        solutions = call(registry, "append", (Var("A"), Var("B"), whole))
        assert len(solutions) == 4  # [] / [1] / [1,2] / [1,2,3] prefixes

    def test_checking_mode(self, registry):
        lst = make_list([Int(1), Int(2)])
        assert call(registry, "append", (make_list([Int(1)]), make_list([Int(2)]), lst))
        assert not call(
            registry, "append", (make_list([Int(2)]), make_list([Int(1)]), lst)
        )


def clause_append(front, back, whole, env, trail):
    """The oracle: append/3 as its two clauses, solved Prolog-style.

    append([], B, B).
    append([H|T], B, [H|W]) :- append(T, B, W).
    """
    mark = trail.mark()
    if unify(front, env, NIL, None, trail) and unify(back, env, whole, env, trail):
        yield None
    trail.undo_to(mark)
    mark = trail.mark()
    head, tail, rest = Var("H"), Var("T"), Var("W")
    if unify(front, env, cons(head, tail), env, trail) and unify(
        whole, env, cons(head, rest), env, trail
    ):
        yield from clause_append(tail, back, rest, env, trail)
    trail.undo_to(mark)


class TestAppendAgainstClauses:
    """The builtin, deterministic mode included, must enumerate exactly the
    solutions of the two clauses, in the same order, in every mode."""

    ELEMENTS = [Int(1), Int(2), Atom("a"), Functor("e", (Int(1), Int(2)))]

    def arg(self, rng, env):
        """One argument: unbound, a ground proper list, a partial list
        ``[X|T]``, a list with a variable element, an improper list, a
        non-list, or a variable bound to a ground list.  No variable occurs
        in two arguments: without an occurs check, ``append(V, B, V)`` can
        recurse forever without a solution."""
        shape = rng.choice(
            ["var", "ground", "ground", "partial", "nonground", "improper",
             "nonlist", "bound"]
        )
        if shape == "var":
            return Var("V")
        items = [rng.choice(self.ELEMENTS) for _ in range(rng.randint(0, 3))]
        if shape == "ground":
            return make_list(items)
        if shape == "partial":
            return make_list(items + [Var("X")], Var("Tail"))
        if shape == "nonground":
            return make_list(items + [Var("E")] + items)
        if shape == "improper":
            return make_list(items + [Int(3)], Atom("b"))
        if shape == "nonlist":
            return rng.choice([Atom("a"), Int(3), Functor("f", (Int(1),))])
        var = Var("B")
        env.bind(var, make_list(items), None)
        return var

    def solutions(self, impl, args, env):
        """The first 8 solutions, as canonical resolved argument triples;
        then undoes the trail, as the join does."""
        trail = Trail()
        found = []
        for _ in itertools.islice(impl(args, env, trail), 8):
            found.append(
                canonicalize_term(
                    Functor("s", tuple(resolve(a, env) for a in args)), {}
                )
            )
        trail.undo_to(0)
        return found

    def test_same_solutions_in_the_same_order(self, registry):
        builtin = registry.lookup("append", 3).impl
        rng = random.Random(24)
        deterministic = 0
        for case in range(3000):
            env = BindEnv()
            front, back, whole = (self.arg(rng, env) for _ in range(3))
            if rng.random() < 0.3:
                # often the true answer, so the checking mode succeeds too
                whole = make_list(
                    (list_elements(resolve(front, env)) or [])
                    + (list_elements(resolve(back, env)) or [])
                )
            args = (front, back, whole)
            bound = len(env)
            got = self.solutions(builtin, args, env)
            assert len(env) == bound, case  # every binding was trailed
            expected = self.solutions(
                lambda a, e, t: clause_append(a[0], a[1], a[2], e, t), args, env
            )
            assert got == expected, (case, [str(a) for a in args])
            if resolve(front, env).is_ground() and resolve(back, env).is_ground():
                deterministic += 1
        assert deterministic > 500


class TestMemberLength:
    def test_member_enumerates(self, registry):
        solutions = call(registry, "member", (Var("X"), make_list([Int(1), Int(2)])))
        assert [s[0] for s in solutions] == [Int(1), Int(2)]

    def test_member_checks(self, registry):
        lst = make_list([Int(1), Int(2)])
        assert call(registry, "member", (Int(2), lst))
        assert not call(registry, "member", (Int(5), lst))

    def test_length_of_proper_list(self, registry):
        solutions = call(registry, "length", (make_list([Int(1), Int(2)]), Var("N")))
        assert solutions[0][1] == Int(2)

    def test_length_builds_list(self, registry):
        solutions = call(registry, "length", (Var("L"), Int(3)))
        assert len(list_elements(solutions[0][0])) == 3

    def test_length_check_fails(self, registry):
        assert not call(registry, "length", (make_list([Int(1)]), Int(5)))


class TestIO:
    def test_write_and_nl(self, registry, monkeypatch):
        sink = io.StringIO()
        monkeypatch.setattr(coral_io, "output_stream", sink)
        call(registry, "write", (Int(42),))
        call(registry, "nl", ())
        assert sink.getvalue() == "42\n"

    def test_io_builtins_are_impure(self, registry):
        assert not registry.lookup("write", 1).pure
        assert registry.lookup("append", 3).pure


class TestRegistry:
    def test_duplicate_registration_rejected(self, registry):
        fresh = registry.copy()
        with pytest.raises(EvaluationError):
            fresh.register_function("append", 3, lambda a, e, t: iter(()))

    def test_replace_allowed(self, registry):
        fresh = registry.copy()
        fresh.register_function("append", 3, lambda a, e, t: iter(()), replace=True)
        assert fresh.lookup("append", 3) is not registry.lookup("append", 3)

    def test_copy_isolated(self, registry):
        fresh = registry.copy()
        fresh.register_function("mine", 1, lambda a, e, t: iter(()))
        assert registry.lookup("mine", 1) is None
