"""Unit tests for unification, matching, subsumption, and bindenvs."""

import pytest

from repro.terms import (
    Atom,
    BindEnv,
    Functor,
    Int,
    Trail,
    Var,
    canonicalize_term,
    deref,
    make_list,
    match,
    rename_term,
    resolve,
    subsumes,
    term_variables,
    unify,
    variant,
)
from repro.terms.unify import flat_constants, subsumes_all, unify_fact


def f(*args):
    return Functor("f", args)


class TestBindEnv:
    def test_figure_2_chained_environments(self):
        """Reproduce the paper's Figure 2: f(X, 10, Y) with X=25, Y=Z in one
        bindenv and Z=50 in another."""
        x, y, z = Var("X"), Var("Y"), Var("Z")
        outer = BindEnv()
        inner = BindEnv()
        inner.bind(z, Int(50), None)
        outer.bind(x, Int(25), None)
        outer.bind(y, z, inner)
        term = Functor("f", (x, Int(10), y))
        assert resolve(term, outer) == Functor("f", (Int(25), Int(10), Int(50)))

    def test_deref_follows_chains(self):
        x, y = Var("X"), Var("Y")
        env = BindEnv()
        env.bind(x, y, env)
        env.bind(y, Atom("a"), None)
        term, term_env = deref(x, env)
        assert term == Atom("a")

    def test_double_bind_raises(self):
        x = Var("X")
        env = BindEnv()
        env.bind(x, Int(1), None)
        with pytest.raises(ValueError):
            env.bind(x, Int(2), None)

    def test_trail_undo(self):
        x, y = Var("X"), Var("Y")
        env = BindEnv()
        trail = Trail()
        mark = trail.mark()
        env.bind(x, Int(1), None, trail)
        env.bind(y, Int(2), None, trail)
        assert x in env and y in env
        trail.undo_to(mark)
        assert x not in env and y not in env

    def test_partial_undo(self):
        x, y = Var("X"), Var("Y")
        env = BindEnv()
        trail = Trail()
        env.bind(x, Int(1), None, trail)
        mark = trail.mark()
        env.bind(y, Int(2), None, trail)
        trail.undo_to(mark)
        assert x in env and y not in env


class TestUnify:
    def _unify(self, left, right, env=None):
        env = env or BindEnv()
        trail = Trail()
        ok = unify(left, env, right, env, trail)
        if not ok:
            trail.undo_to(0)
        return ok, env

    def test_constants_unify_with_equal_constants(self):
        ok, _ = self._unify(Int(1), Int(1))
        assert ok
        ok, _ = self._unify(Int(1), Int(2))
        assert not ok

    def test_var_binds_to_constant(self):
        x = Var("X")
        ok, env = self._unify(x, Int(7))
        assert ok
        assert resolve(x, env) == Int(7)

    def test_var_var_aliasing(self):
        x, y = Var("X"), Var("Y")
        env = BindEnv()
        trail = Trail()
        assert unify(x, env, y, env, trail)
        assert unify(y, env, Int(3), env, trail)
        assert resolve(x, env) == Int(3)

    def test_functor_unification_binds_subterms(self):
        x, y = Var("X"), Var("Y")
        ok, env = self._unify(f(x, Int(2)), f(Int(1), y))
        assert ok
        assert resolve(x, env) == Int(1)
        assert resolve(y, env) == Int(2)

    def test_functor_name_mismatch(self):
        ok, _ = self._unify(f(Int(1)), Functor("g", (Int(1),)))
        assert not ok

    def test_functor_arity_mismatch(self):
        ok, _ = self._unify(f(Int(1)), f(Int(1), Int(2)))
        assert not ok

    def test_ground_fast_path_equal(self):
        big = make_list([Int(i) for i in range(100)])
        ok, _ = self._unify(big, make_list([Int(i) for i in range(100)]))
        assert ok

    def test_ground_fast_path_unequal(self):
        left = make_list([Int(i) for i in range(100)])
        right = make_list([Int(i) for i in range(99)] + [Int(999)])
        ok, _ = self._unify(left, right)
        assert not ok

    def test_repeated_variable(self):
        x = Var("X")
        ok, env = self._unify(f(x, x), f(Int(1), Int(1)))
        assert ok
        ok2, _ = self._unify(f(x, x), f(Int(1), Int(2)), env=BindEnv())
        assert not ok2

    def test_unification_across_two_environments(self):
        x = Var("X")
        y = Var("Y")
        left_env, right_env = BindEnv(), BindEnv()
        trail = Trail()
        assert unify(f(x), left_env, f(y), right_env, trail)
        assert unify(y, right_env, Int(9), right_env, trail)
        assert resolve(x, left_env) == Int(9)

    def test_occurs_check(self):
        x = Var("X")
        env = BindEnv()
        trail = Trail()
        assert not unify(x, env, f(x), env, trail, occurs_check=True)

    def test_without_occurs_check_cyclic_binding_allowed(self):
        x = Var("X")
        env = BindEnv()
        trail = Trail()
        assert unify(x, env, f(x), env, trail, occurs_check=False)


class TestMatch:
    def test_pattern_var_binds(self):
        x = Var("X")
        env = BindEnv()
        trail = Trail()
        assert match(f(x), env, f(Int(5)), None, trail)
        assert resolve(x, env) == Int(5)

    def test_instance_var_does_not_bind(self):
        y = Var("Y")
        env = BindEnv()
        trail = Trail()
        assert not match(f(Int(5)), env, f(y), None, trail)

    def test_pattern_var_matches_instance_var(self):
        x, y = Var("X"), Var("Y")
        env = BindEnv()
        trail = Trail()
        assert match(x, env, y, None, trail)
        term, _ = deref(x, env)
        assert term is y


class TestSubsumption:
    def test_ground_subsumes_itself(self):
        assert subsumes(f(Int(1)), f(Int(1)))

    def test_general_subsumes_instance(self):
        x = Var("X")
        assert subsumes(f(x, Int(2)), f(Int(1), Int(2)))

    def test_instance_does_not_subsume_general(self):
        x = Var("X")
        assert not subsumes(f(Int(1), Int(2)), f(x, Int(2)))

    def test_repeated_var_requires_equal_subterms(self):
        x = Var("X")
        y, z = Var("Y"), Var("Z")
        assert subsumes(f(x, x), f(Int(1), Int(1)))
        assert not subsumes(f(x, x), f(Int(1), Int(2)))
        assert not subsumes(f(x, x), f(y, z))
        assert subsumes(f(x, x), f(y, y))

    def test_var_subsumes_nonground(self):
        x, y = Var("X"), Var("Y")
        assert subsumes(x, f(y))

    def test_subsumes_all_shares_substitution(self):
        x = Var("X")
        assert subsumes_all([x, x], [Int(1), Int(1)])
        assert not subsumes_all([x, x], [Int(1), Int(2)])

    def test_subsumes_all_arity_mismatch(self):
        assert not subsumes_all([Var("X")], [Int(1), Int(2)])


class TestFlatConstants:
    def test_constants_and_distinct_variables_are_flat(self):
        pattern = [Int(1), Var("X"), f(Atom("a")), Var("Y")]
        assert flat_constants(pattern) == [(0, Int(1)), (2, f(Atom("a")))]
        assert flat_constants([Var("X"), Var("Y")]) == []

    def test_repeated_or_nested_variables_are_not(self):
        x = Var("X")
        assert flat_constants([x, x]) is None
        assert flat_constants([Int(1), f(x)]) is None

    def test_agrees_with_unify_fact_on_ground_facts(self):
        pattern = [Int(1), Var("X"), f(Atom("a"))]
        constants = flat_constants(pattern)
        for fact in (
            [Int(1), Int(7), f(Atom("a"))],
            [Int(2), Int(7), f(Atom("a"))],
            [Int(1), Int(7), f(Atom("b"))],
            [Int(1), f(Int(3)), Atom("a")],
        ):
            trail = Trail()
            flat = all(arg.equals(fact[p]) for p, arg in constants)
            assert flat == unify_fact(pattern, BindEnv(), fact, trail)


class TestVariantAndRenaming:
    def test_variant_true(self):
        x, y = Var("X"), Var("Y")
        assert variant(f(x, y, x), f(y, x, y))

    def test_variant_false_when_pattern_differs(self):
        x, y = Var("X"), Var("Y")
        assert not variant(f(x, x), f(x, y))

    def test_rename_produces_fresh_consistent_vars(self):
        x = Var("X")
        term = f(x, x)
        renamed = rename_term(term, {})
        assert variant(term, renamed)
        renamed_vars = term_variables([renamed])
        assert len(renamed_vars) == 1
        assert renamed_vars[0].vid != x.vid

    def test_canonicalize_is_deterministic(self):
        x, y = Var("X"), Var("Y")
        a = canonicalize_term(f(x, y), {})
        b = canonicalize_term(f(Var("P"), Var("Q")), {})
        assert a == b

    def test_term_variables_order_and_dedup(self):
        x, y = Var("X"), Var("Y")
        assert term_variables([f(x, y, x)]) == [x, y]
