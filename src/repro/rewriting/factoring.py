"""Context factoring for linear recursions (Section 4.1; refs [16, 9]).

For a linear recursion queried with its bound/free split aligned to the
recursion —

    p(X̄, Ȳ) :- exit_body(X̄, Ȳ).
    p(X̄, Ȳ) :- step_body(X̄, Z̄), p(Z̄, Ȳ).      query form binds X̄, frees Ȳ

magic-style rewritings compute a quadratic set of (subgoal, answer) pairs:
every reachable context Z̄ re-derives its own copy of the shared answers.
Context factoring separates the two roles: a *context* relation collects the
reachable bound-argument combinations, and the answers are produced once
from contexts and exit bodies:

    ctx(X̄0)  (seed: the query's bound arguments)
    ctx(Z̄) :- ctx(X̄), step_body(X̄, Z̄).
    ans(Ȳ) :- ctx(X̄), exit_body(X̄, Ȳ).

Answers to the original query are exactly ``ans`` (the free positions),
spliced with the query's bound constants.  Only the query predicate's own
rules are carried into the rewritten program.

The optimizer tries this first for every bound query form, so the
precondition :func:`factoring_rewrite` checks is deliberately conservative:
anything it is not sure about raises :class:`FactoringNotApplicable` with a
one-line reason, and the optimizer moves on to supplementary magic
(Section 4.1: "each technique is superior to the rest for some programs").
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, List

from ..errors import RewriteError
from ..language.ast import Literal, ModuleDecl, Rule
from ..terms import Var
from .magic import RewrittenProgram


class FactoringNotApplicable(RewriteError):
    """The program/query form is outside the factorable class; the message
    is the one-line reason the optimizer records on the compiled form."""


def _variables(literals) -> Iterator[int]:
    """The id of every variable occurrence in ``literals``."""
    for literal in literals:
        for arg in literal.args:
            for var in arg.variables():
                yield var.vid


def factoring_rewrite(
    module: ModuleDecl, query_pred: str, adornment: str
) -> RewrittenProgram:
    """Factor ``query_pred`` of ``module`` for ``adornment``, or say why not."""
    key = (query_pred, len(adornment))
    name = f"{query_pred}/{len(adornment)}"
    bound_positions = tuple(i for i, flag in enumerate(adornment) if flag == "b")
    free_positions = tuple(i for i, flag in enumerate(adornment) if flag == "f")
    if not bound_positions or not free_positions:
        missing = "free" if bound_positions else "bound"
        raise FactoringNotApplicable(f"form {adornment} has no {missing} argument")

    def calls(rule: Rule) -> List[Literal]:
        return [literal for literal in rule.body if literal.key == key]

    own_rules = [rule for rule in module.rules if rule.head.key == key]
    exit_rules = [rule for rule in own_rules if not calls(rule)]
    recursive_rules = [rule for rule in own_rules if calls(rule)]
    if not exit_rules:
        raise FactoringNotApplicable(f"{name} has no exit rule")
    if not recursive_rules:
        raise FactoringNotApplicable(f"{name} has no recursive rule")

    context_name = f"ctx_{query_pred}"
    answer_name = f"fans_{query_pred}"
    out_rules: List[Rule] = []

    for rule in recursive_rules:
        call = calls(rule)[0]
        if len(calls(rule)) != 1 or call.negated:
            raise FactoringNotApplicable(
                f"a rule of {name} is not linear in it"
            )
        step = tuple(literal for literal in rule.body if literal is not call)
        # the free arguments pass through untouched: the same variable in
        # the head and in the call, and nowhere else in the rule
        uses = Counter(_variables((rule.head,) + rule.body))
        for position in free_positions:
            head_arg, call_arg = rule.head.args[position], call.args[position]
            if not (
                isinstance(head_arg, Var)
                and isinstance(call_arg, Var)
                and head_arg.vid == call_arg.vid
                and uses[head_arg.vid] == 2
            ):
                raise FactoringNotApplicable(
                    f"free argument {position + 1} of {name} does not pass "
                    f"through the recursive call unchanged"
                )
        guard = Literal(
            context_name, tuple(rule.head.args[p] for p in bound_positions)
        )
        context = Literal(
            context_name, tuple(call.args[p] for p in bound_positions)
        )
        body = (guard,) + step
        if not set(_variables((context,))) <= set(_variables(body)):
            raise FactoringNotApplicable(
                f"a recursive call of {name} has an unbound context argument"
            )
        out_rules.append(Rule(context, body))

    # nothing derived may be evaluated without bindings
    defined = {rule.head.key for rule in module.rules}
    for rule in own_rules:
        for literal in rule.body:
            if literal.key != key and literal.key in defined:
                raise FactoringNotApplicable(
                    f"body of {name} calls derived predicate "
                    f"{literal.pred}/{literal.arity}"
                )
    if any(rule.head_aggregates for rule in own_rules):
        raise FactoringNotApplicable(f"{name} has head aggregates")
    if any(s.pred == query_pred for s in module.aggregate_selections):
        raise FactoringNotApplicable(f"{name} carries an @aggregate_selection")
    # (under @ordered_search the optimizer's ``none`` candidate holds first)
    for flag in ("multiset", "save_module"):
        if module.has_flag(flag):
            raise FactoringNotApplicable(f"module {module.name} is @{flag}")

    for rule in exit_rules:
        guard = Literal(
            context_name, tuple(rule.head.args[p] for p in bound_positions)
        )
        answer = Literal(
            answer_name, tuple(rule.head.args[p] for p in free_positions)
        )
        out_rules.append(Rule(answer, (guard,) + rule.body))

    return RewrittenProgram(
        rules=out_rules,
        answer_pred=answer_name,
        answer_arity=len(free_positions),
        magic_pred=context_name,
        bound_positions=bound_positions,
        technique="factoring",
        origin={},
        answer_positions=free_positions,
    )
