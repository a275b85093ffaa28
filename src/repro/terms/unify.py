"""Unification, one-way matching, and subsumption.

Section 3.1: *"The evaluation of rules in CORAL is based on the operation of
unification that generates bindings for variables based on patterns in the
rules and the data."*

Three operations, all trail-recording so the nested-loops join can undo
bindings between loop iterations (Section 5.3):

* :func:`unify` — full two-way unification across two binding environments.
  Ground functor terms short-circuit through their hash-consed identifiers
  (Section 3.1), making unification of large shared structures O(1).
* :func:`match` — one-way matching: only variables of the *pattern* side may
  be bound.  This is what index probes and subsumption need.
* :func:`subsumes` — does a stored (possibly non-ground) fact make a new
  fact redundant?  Used by the default duplicate/subsumption checks on
  relations (Section 4.2).

Occurs-check is off by default, as in Prolog and the original CORAL; pass
``occurs_check=True`` where rational trees must be rejected.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple as PyTuple

from .base import FLAT_PRIMITIVES, Arg
from .bindenv import BindEnv, Trail, deref
from .functor import Functor
from .hashcons import hc_id
from .variable import Var


def _occurs(var: Var, term: Arg, env: Optional[BindEnv]) -> bool:
    term, env = deref(term, env)
    if isinstance(term, Var):
        return term.vid == var.vid
    if isinstance(term, Functor):
        return any(_occurs(var, arg, env) for arg in term.args)
    return False


def unify(
    left: Arg,
    left_env: Optional[BindEnv],
    right: Arg,
    right_env: Optional[BindEnv],
    trail: Trail,
    occurs_check: bool = False,
) -> bool:
    """Unify two terms, each interpreted in its own binding environment.

    On success the environments are extended (bindings recorded on
    ``trail``); on failure the caller is responsible for undoing the trail
    to its pre-call mark — partial bindings are left in place, exactly as
    the backtracking join expects.

    Iterative (explicit worklist): deep terms such as long lists must not be
    limited by the host language's recursion depth.
    """
    stack = [(left, left_env, right, right_env)]
    while stack:
        left, left_env, right, right_env = stack.pop()
        left, left_env = deref(left, left_env)
        right, right_env = deref(right, right_env)

        if isinstance(left, Var):
            if (
                isinstance(right, Var)
                and right.vid == left.vid
                and right_env is left_env
            ):
                continue
            if occurs_check and _occurs(left, right, right_env):
                return False
            if left_env is None:
                raise ValueError(f"unbound variable {left} has no environment")
            left_env.bind(left, right, right_env, trail)
            continue
        if isinstance(right, Var):
            if occurs_check and _occurs(right, left, left_env):
                return False
            if right_env is None:
                raise ValueError(f"unbound variable {right} has no environment")
            right_env.bind(right, left, left_env, trail)
            continue

        if isinstance(left, Functor):
            if not isinstance(right, Functor):
                return False
            if left.name != right.name or len(left.args) != len(right.args):
                return False
            # Hash-consing fast path: two ground functor terms unify iff
            # their unique identifiers are the same (Section 3.1).
            if left._ground and right._ground:
                if (left._hc_id or hc_id(left)) != (right._hc_id or hc_id(right)):
                    return False
                continue
            for la, ra in zip(reversed(left.args), reversed(right.args)):
                stack.append((la, left_env, ra, right_env))
            continue

        if isinstance(right, Functor):
            return False
        if not left.equals(right):
            return False
    return True


def match(
    pattern: Arg,
    pattern_env: Optional[BindEnv],
    instance: Arg,
    instance_env: Optional[BindEnv],
    trail: Trail,
) -> bool:
    """One-way matching: bind only the pattern's variables.

    Succeeds iff some substitution of the pattern's variables makes the two
    sides equal, leaving the instance untouched.  The instance side may
    itself contain variables — they match only an identical variable on the
    pattern side (no binding), which is the semantics subsumption needs.
    Iterative, like :func:`unify`.
    """
    stack = [(pattern, pattern_env, instance, instance_env)]
    while stack:
        pattern, pattern_env, instance, instance_env = stack.pop()
        pattern, pattern_env = deref(pattern, pattern_env)
        instance, instance_env = deref(instance, instance_env)

        if isinstance(pattern, Var):
            if pattern_env is None:
                raise ValueError(
                    f"unbound variable {pattern} has no environment"
                )
            pattern_env.bind(pattern, instance, instance_env, trail)
            continue
        if isinstance(instance, Var):
            return False

        if isinstance(pattern, Functor):
            if not isinstance(instance, Functor):
                return False
            if (
                pattern.name != instance.name
                or len(pattern.args) != len(instance.args)
            ):
                return False
            if pattern._ground and instance._ground:
                if (pattern._hc_id or hc_id(pattern)) != (
                    instance._hc_id or hc_id(instance)
                ):
                    return False
                continue
            for pa, ia in zip(reversed(pattern.args), reversed(instance.args)):
                stack.append((pa, pattern_env, ia, instance_env))
            continue

        if isinstance(instance, Functor):
            return False
        if not pattern.equals(instance):
            return False
    return True


def _consistent_match(
    pattern: Arg,
    pattern_env: BindEnv,
    instance: Arg,
    trail: Trail,
) -> bool:
    """Matching for subsumption: repeated pattern variables must map to
    structurally *identical* instance subterms (the instance's variables are
    treated as constants, so no binding may happen on the instance side).
    Iterative, like :func:`match`."""
    stack = [(pattern, instance)]
    while stack:
        pattern, instance = stack.pop()
        if isinstance(pattern, Var):
            bound = pattern_env.lookup(pattern)
            if bound is not None:
                if not bound[0] == instance:
                    return False
                continue
            pattern_env.bind(pattern, instance, None, trail)
            continue
        if isinstance(pattern, Functor):
            if not isinstance(instance, Functor):
                return False
            if pattern._ground:
                if not pattern == instance:
                    return False
                continue
            if (
                pattern.name != instance.name
                or len(pattern.args) != len(instance.args)
            ):
                return False
            stack.extend(zip(reversed(pattern.args), reversed(instance.args)))
            continue
        if isinstance(instance, (Var, Functor)):
            return False
        if not pattern.equals(instance):
            return False
    return True


def subsumes(general: Arg, specific: Arg) -> bool:
    """True when ``general`` θ-subsumes ``specific``.

    I.e. some substitution of ``general``'s variables yields exactly
    ``specific`` (treating ``specific``'s variables as constants).  A stored
    fact that subsumes a new fact makes the new fact redundant under the
    universal-quantification semantics of variables in facts (Section 3.1).
    Both terms are assumed standalone (no external bindenv), which is how
    facts are stored in relations.
    """
    env = BindEnv()
    trail = Trail()
    try:
        return _consistent_match(general, env, specific, trail)
    finally:
        trail.undo_to(0)


def unify_fact(
    pattern_args: "Sequence[Arg]",
    env: BindEnv,
    fact_args: "Sequence[Arg]",
    trail: Trail,
) -> bool:
    """Unify a literal's arguments against a stored fact's arguments.

    Argument by argument.  The common case is settled by position, with no
    unifier and nothing allocated: a fact value — a primitive constant
    (exactly :data:`FLAT_PRIMITIVES`) or a ground functor term — against an
    unbound pattern variable (bind it to ``(value, None)``), or against a
    value of the same class, given as is or bound to a pattern variable
    (compare ``.value``, or the hash-consed identifiers of two ground
    functor terms, Section 3.1).  Every other argument (a fact variable, a
    partly bound pattern, a pattern variable bound to another variable,
    ``BigNum`` against ``Int``, a user-defined type) goes to :func:`unify`.

    For those the fact gets its own fresh binding environment, shared by
    all its arguments (non-ground facts carry universally quantified
    variables, Section 3.1 / Figure 2), so a fact variable can be bound for
    the duration of this inference without touching the stored fact.  On
    failure, partial bindings remain on the trail for the caller to undo —
    same contract as :func:`unify`.
    """
    bindings = env._bindings
    fact_env = None
    for pattern_arg, fact_arg in zip(pattern_args, fact_args):
        fact_class = fact_arg.__class__
        if fact_class in FLAT_PRIMITIVES or (
            fact_class is Functor and fact_arg._ground
        ):
            if pattern_arg.__class__ is Var:
                bound = bindings.get(pattern_arg.vid)
                if bound is None:
                    bindings[pattern_arg.vid] = (fact_arg, None)
                    trail._entries.append((env, pattern_arg))
                    continue
                # bound: compare what it is bound to (a value needs no env)
                value = bound[0]
            else:
                value = pattern_arg
            if value.__class__ is fact_class:
                if fact_class is not Functor:
                    if value.value != fact_arg.value:
                        return False
                    continue
                if value._ground:
                    if value is not fact_arg and (value._hc_id or hc_id(value)) != (
                        fact_arg._hc_id or hc_id(fact_arg)
                    ):
                        return False
                    continue
        if fact_env is None:
            fact_env = BindEnv()
        if not unify(pattern_arg, env, fact_arg, fact_env, trail):
            return False
    return True


def flat_constants(
    pattern_args: "Sequence[Arg]",
) -> "Optional[List[PyTuple[int, Arg]]]":
    """The (position, constant) pairs of a *flat* pattern — constants and
    pairwise-distinct variables only — or None for any other shape.

    A flat pattern unifies with a ground fact iff ``constant.equals(fact
    argument)`` at each of those positions: there is nothing to bind or
    undo, so whoever filters many ground facts by one goal (the top-level
    answer loop, a memo entry serving a more-bound call) can skip the
    binding environments.
    """
    constants = [
        (position, arg)
        for position, arg in enumerate(pattern_args)
        if arg.is_ground()
    ]
    variables = {arg.vid for arg in pattern_args if isinstance(arg, Var)}
    if len(constants) + len(variables) != len(pattern_args):
        return None
    return constants


def subsumes_all(general: "Sequence[Arg]", specific: "Sequence[Arg]") -> bool:
    """Tuple-level θ-subsumption: one substitution must work across *all*
    argument positions (a variable repeated in two arguments of a stored
    fact must map to the same subterm in both)."""
    if len(general) != len(specific):
        return False
    env = BindEnv()
    trail = Trail()
    try:
        return all(
            _consistent_match(g, env, s, trail) for g, s in zip(general, specific)
        )
    finally:
        trail.undo_to(0)


def variant(left: Arg, right: Arg) -> bool:
    """True when the two terms are equal up to consistent variable renaming."""
    from .bindenv import canonicalize_term

    return canonicalize_term(left, {}) == canonicalize_term(right, {})
