"""Unit tests for unification, matching, subsumption, and bindenvs."""

import random
import sys

import pytest

from repro.terms import (
    Arg,
    Atom,
    BigNum,
    BindEnv,
    Double,
    Functor,
    Int,
    Str,
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


class Celsius(Arg):
    """A user-defined type (Section 7.1): only the Arg contract, no
    ``value`` attribute for a matcher to reach for."""

    __slots__ = ("degrees",)
    kind = "celsius"

    def __init__(self, degrees):
        object.__setattr__(self, "degrees", degrees)

    def equals(self, other):
        return isinstance(other, Celsius) and other.degrees == self.degrees

    def __eq__(self, other):
        return self.equals(other) if isinstance(other, Arg) else NotImplemented

    def __hash__(self):
        return hash(("celsius", self.degrees))

    def __repr__(self):
        return f"Celsius({self.degrees})"


def reference_unify_fact(pattern_args, env, fact_args, trail):
    """``unify_fact`` with no positional prefix: one fresh environment for
    the fact and the general unifier for every argument."""
    fact_env = BindEnv()
    return all(
        unify(pattern_arg, env, fact_arg, fact_env, trail)
        for pattern_arg, fact_arg in zip(pattern_args, fact_args)
    )


class TestUnifyFactAgainstUnify:
    """The positional prefix of ``unify_fact`` is an optimisation only: on
    every shape of pattern, binding state and fact it must give the verdict
    and the bindings the general unifier gives, and leave a trail that
    undoes them."""

    PX, PY, PZ = Var("PX"), Var("PY"), Var("PZ")
    FA, FB = Var("FA"), Var("FB")
    # the seeded pools nest these three, and only these, inside functor
    # terms: a variable that occurs both bare and nested can be bound to a
    # term containing itself (no occurs check, as in Prolog), and nothing
    # resolves a cyclic binding
    PW, PV, FC = Var("PW"), Var("PV"), Var("FC")
    PATTERN_VARS = (PX, PY, PZ, PW, PV)
    CONSTANTS = (
        Int(1), Int(2), BigNum(1), Double(1.0), Double(2.5), Str("a"),
        Str("1"), Atom("a"), Atom("b"), f(Int(1)), f(Atom("a"), Int(2)),
        make_list([Int(1), Int(2)]), Celsius(1), Celsius(2),
    )
    PATTERN_ARGS = CONSTANTS + (PX, PY, PZ, f(PW), f(PW, Int(2)))
    FACT_ARGS = CONSTANTS + (FA, FB, f(FC), f(FC, Int(2)))
    #: what a pattern variable may already be bound to when the match starts
    PRIOR = CONSTANTS + (PY, PZ, f(PV), None, None, None, None)

    def _environment(self, prior):
        """An activation environment with ``prior`` — a (variable, term)
        list — applied.  A variable is aliased only to a later one, so the
        chains end."""
        env = BindEnv()
        order = self.PATTERN_VARS
        for var, term in prior:
            if term is None or var in env:
                continue
            if isinstance(term, Var) and order.index(term) <= order.index(var):
                continue
            env.bind(var, term, env)
        return env

    def _state(self, env):
        return [
            (var, None if env.lookup(var) is None else env.lookup(var)[0])
            for var in self.PATTERN_VARS + (self.FA, self.FB, self.FC)
        ], len(env)

    def _check(self, pattern, prior, fact):
        outcomes = []
        for matcher in (unify_fact, reference_unify_fact):
            env = self._environment(prior)
            before = self._state(env)
            trail = Trail()
            mark = trail.mark()
            verdict = matcher(pattern, env, fact, trail)
            resolved = [resolve(arg, env) for arg in pattern]
            bound = [resolve(var, env) for var in self.PATTERN_VARS]
            trail.undo_to(mark)
            assert self._state(env) == before, (pattern, prior, fact)
            outcomes.append((verdict, resolved, bound))
        assert outcomes[0] == outcomes[1], (pattern, prior, fact)
        return outcomes[0][0]

    def test_seeded_patterns_times_facts(self):
        rng = random.Random(18)
        matched = 0
        for _ in range(4000):
            arity = rng.randint(1, 4)
            pattern = [rng.choice(self.PATTERN_ARGS) for _ in range(arity)]
            fact = [rng.choice(self.FACT_ARGS) for _ in range(arity)]
            if rng.random() < 0.5:
                # bias towards matches: the fact is the pattern, perturbed
                fact = [
                    p if p.is_ground() and rng.random() < 0.8 else a
                    for p, a in zip(pattern, fact)
                ]
            prior = [
                (var, rng.choice(self.PRIOR))
                for var in (self.PX, self.PY, self.PZ)
            ]
            matched += self._check(pattern, prior, fact)
        assert 400 < matched < 3600  # both verdicts are well represented

    @pytest.mark.parametrize(
        "pattern, prior, fact, expected",
        [
            # equal by kind, different classes: the general path's call
            ([Int(1)], [], [BigNum(1)], True),
            ([BigNum(1)], [], [Int(1)], True),
            ([PX], [(PX, BigNum(1))], [Int(1)], True),
            ([Int(1)], [], [Double(1.0)], False),
            ([Str("a")], [], [Atom("a")], False),
            # a pattern variable bound to a structured term, or to a variable
            ([PX], [(PX, f(PZ))], [f(Int(1))], True),
            ([PX], [(PX, f(Int(1)))], [f(Int(2))], False),
            ([PX], [(PX, PY)], [Int(3)], True),
            ([PX, PY], [(PX, PY)], [Int(3), Int(4)], False),
            # a repeated pattern variable
            ([PX, PX], [], [Int(1), Int(1)], True),
            ([PX, PX], [], [Int(1), Int(2)], False),
            ([PX, PX], [], [f(Int(1)), f(Int(1))], True),
            ([PX, PX], [], [f(Int(1)), Int(1)], False),
            # a non-ground stored fact: its variables are shared across
            # arguments for the length of the inference
            ([Int(1), PX], [], [FA, FA], True),
            ([Int(1), Int(2)], [], [FA, FA], False),
            ([PX, Int(2)], [], [Int(1), FA], True),
            ([f(PX), PX], [], [f(FA), Int(5)], True),
            # a user-defined type is matched through equals()
            ([Celsius(1)], [], [Celsius(1)], True),
            ([Celsius(1)], [], [Celsius(2)], False),
            ([PX, PX], [], [Celsius(1), Celsius(1)], True),
            ([Int(1)], [], [Celsius(1)], False),
            # ground functor terms meet by hash-consed id: equal copies,
            # given as is or bound to a pattern variable
            ([f(Int(1))], [], [f(Int(1))], True),
            ([f(Int(1))], [], [f(Int(2))], False),
            ([f(Int(1))], [], [Functor("g", (Int(1),))], False),
            ([make_list([Int(1), Int(2)])], [], [make_list([Int(1), Int(2)])], True),
            ([PX], [(PX, make_list([Int(1)]))], [make_list([Int(1)])], True),
            ([PX], [(PX, make_list([Int(1)]))], [make_list([Int(2)])], False),
            ([PX], [(PX, f(Int(1)))], [Int(1)], False),
        ],
    )
    def test_cases_the_positional_prefix_must_hand_over(
        self, pattern, prior, fact, expected
    ):
        assert self._check(pattern, prior, fact) is expected

    def test_ground_facts_bind_without_an_environment(self):
        """What the prefix is for: a ground fact's values are bound as
        ``(term, None)`` and one trail entry each — nothing else."""
        env, trail = BindEnv(), Trail()
        fact = [Int(1), f(Int(2)), Atom("a")]
        assert unify_fact([self.PX, self.PY, Atom("a")], env, fact, trail)
        assert env.lookup(self.PX) == (Int(1), None)
        assert env.lookup(self.PY) == (f(Int(2)), None)
        assert len(trail) == 2

    def test_ground_functors_settle_without_the_unifier(self, monkeypatch):
        """A ground functor pattern, or a variable bound to one, against a
        ground functor fact: ids compared, no fact environment, no
        ``unify``."""

        def refuse(*args, **kwargs):
            raise AssertionError("general unify called")

        monkeypatch.setattr(sys.modules["repro.terms.unify"], "unify", refuse)
        env, trail = BindEnv(), Trail()
        env.bind(self.PX, make_list([Int(1), Int(2)]), None)
        pattern = [self.PX, f(Atom("a"), Int(2))]
        assert unify_fact(
            pattern, env, [make_list([Int(1), Int(2)]), f(Atom("a"), Int(2))], trail
        )
        assert not unify_fact(
            pattern, env, [make_list([Int(1), Int(3)]), f(Atom("a"), Int(2))], trail
        )
        assert len(trail) == 0


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
