"""Join-order selection (Section 4.2: the optimizer is responsible for
"(1) join order selection").

CORAL's default is the user's textual left-to-right order (Section 4.1 —
order is part of the language's contract, and pipelined side effects rely on
it), so reordering is opt-in via ``@join_ordering.``.  When enabled, each
rule body is greedily reordered bound-first:

* a comparison/negated literal is scheduled as soon as its variables are
  bound (cheap filters run early);
* among positive literals, the one with the most bound argument positions
  runs next (indexable probes before cartesian scans), ties broken by the
  original order;
* ``=`` is scheduled once either side is fully bound (it then binds the
  other), an arithmetic side counting as bound only when it is ground;
* rules containing impure builtins are left untouched — their order is
  observable.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Set

from ..builtins import is_arith_expr
from ..language.ast import Literal, Rule

BuiltinInfo = Callable[[str, int], object]  # returns Builtin-like or None


def _vids(literal: Literal) -> Set[int]:
    return {var.vid for arg in literal.args for var in arg.variables()}


def order_rule_body(
    rule: Rule, lookup_builtin: BuiltinInfo
) -> Rule:
    """A rule with its body greedily reordered; the rule itself when
    reordering is unsafe or pointless."""
    if len(rule.body) < 2:
        return rule
    for literal in rule.body:
        builtin = lookup_builtin(literal.pred, literal.arity)
        if builtin is not None and not getattr(builtin, "pure", True):
            return rule  # observable side effects: order is the spec
    ordered = order_body(rule.body, lookup_builtin)
    if ordered == list(rule.body):
        return rule
    return Rule(rule.head, tuple(ordered), rule.head_aggregates)


def order_body(
    body: Sequence[Literal],
    lookup_builtin: BuiltinInfo,
    bound_vids: Iterable[int] = (),
) -> List[Literal]:
    """``body`` greedily reordered bound-first, given the variables (by vid)
    already bound when it starts — none for a rule evaluated from scratch;
    the variables of the seed literal, or of the head, for the maintenance
    engine's delta joins and re-derivation checks.  The caller vouches that
    the literals have no observable side effects."""
    remaining: List[Literal] = list(body)
    ordered: List[Literal] = []
    bound: Set[int] = set(bound_vids)

    def eligible_filter(literal: Literal) -> bool:
        builtin = lookup_builtin(literal.pred, literal.arity)
        if literal.negated:
            return _vids(literal) <= bound
        if builtin is None:
            return False
        if literal.pred == "=" and len(literal.args) == 2:
            # one bound side binds the other by unification — unless the
            # other is arithmetic, which `=` evaluates and so needs ground
            free_sides = [
                side for side in literal.args
                if not {v.vid for v in side.variables()} <= bound
            ]
            return not free_sides or (
                len(free_sides) == 1 and not is_arith_expr(free_sides[0])
            )
        return _vids(literal) <= bound

    def bound_arg_count(literal: Literal) -> int:
        count = 0
        for arg in literal.args:
            arg_vids = {v.vid for v in arg.variables()}
            if not arg_vids or arg_vids <= bound:
                count += 1
        return count

    while remaining:
        # cheap filters first, in original order
        placed = False
        for index, literal in enumerate(remaining):
            if eligible_filter(literal):
                ordered.append(remaining.pop(index))
                bound |= _vids(literal)
                placed = True
                break
        if placed:
            continue
        # then the most-bound positive (non-builtin) literal
        best_index = None
        best_score = -1
        for index, literal in enumerate(remaining):
            if literal.negated or lookup_builtin(literal.pred, literal.arity):
                continue
            score = bound_arg_count(literal)
            if score > best_score:
                best_index, best_score = index, score
        if best_index is None:
            # only unsatisfiable-yet builtins/negations remain: keep the
            # user's order for the tail and give up on further reordering
            ordered.extend(remaining)
            break
        literal = remaining.pop(best_index)
        ordered.append(literal)
        bound |= _vids(literal)
    return ordered


def order_program(
    rules: Sequence[Rule], lookup_builtin: BuiltinInfo
) -> List[Rule]:
    return [order_rule_body(rule, lookup_builtin) for rule in rules]
