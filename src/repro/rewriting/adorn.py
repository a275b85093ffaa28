"""Program adornment: specializing rules for a query form.

Section 4.1: *"The desired selection pattern is specified using a query
form, where a 'bound' argument indicates that any binding in that argument
position of the query is to be propagated."*

Adornment is the first half of every magic-style rewriting: each derived
predicate is split into versions annotated with which argument positions
arrive bound (``b``) or free (``f``) — ``path_bf`` is "path called with the
first argument known".  Sideways information passing is left to right within
a rule body (the paper's default, Section 4.1), so a body literal's bound
positions are those whose variables are all bound by the head's bound
arguments or by earlier body literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Sequence, Set, Tuple as PyTuple

from ..errors import RewriteError
from ..language.ast import AggregateSelection, Literal, Rule, group_positions
from ..terms import Arg

PredKey = PyTuple[str, int]


def adorned_name(pred: str, adornment: str) -> str:
    """The rewritten predicate name, e.g. ``path`` + ``bf`` -> ``path_bf``."""
    return f"{pred}_{adornment}"


@dataclass
class AdornedProgram:
    """The result of adorning a module for one query form."""

    #: adorned rules, heads renamed to ``pred_adornment``
    rules: List[Rule]
    #: adorned name of the query predicate
    query_pred: str
    #: the query's adornment string
    query_adornment: str
    #: adorned-name -> (original name, adornment)
    origin: Dict[str, PyTuple[str, str]] = field(default_factory=dict)


def _is_bound(arg: Arg, bound_vars: Set[int]) -> bool:
    """An argument is bound when every variable in it is bound."""
    return all(var.vid in bound_vars for var in arg.variables())


def _literal_adornment(literal: Literal, bound_vars: Set[int]) -> str:
    return "".join(
        "b" if _is_bound(arg, bound_vars) else "f" for arg in literal.args
    )


def adorn_program(
    rules: Sequence[Rule],
    query_pred: str,
    query_arity: int,
    adornment: str,
    is_builtin: Callable[[str, int], bool],
    selections: Sequence[AggregateSelection] = (),
) -> AdornedProgram:
    """Adorn ``rules`` for a query on ``query_pred`` with ``adornment``.

    Only predicates defined by ``rules`` are adorned (and later get magic
    predicates); anything else — base relations, other modules' exports,
    builtins — is scanned as-is and treated as binding all its variables
    once evaluated.

    A predicate that carries aggregate ``selections`` is adorned bound at
    its grouping positions only (:func:`group_positions`), the query form
    included: the selection must choose among all the facts of a group, and
    whoever reads the answers applies the remaining bindings.
    """
    if len(adornment) != query_arity or any(c not in "bf" for c in adornment):
        raise RewriteError(
            f"bad adornment {adornment!r} for {query_pred}/{query_arity}"
        )
    defined: Set[PredKey] = {rule.head.key for rule in rules}
    by_pred: Dict[PredKey, List[Rule]] = {}
    for rule in rules:
        by_pred.setdefault(rule.head.key, []).append(rule)

    by_selected: Dict[PredKey, List[AggregateSelection]] = {}
    for selection in selections:
        by_selected.setdefault((selection.pred, selection.arity), []).append(
            selection
        )
    bindable = {key: group_positions(on) for key, on in by_selected.items()}
    adornment = _restrict(adornment, bindable.get((query_pred, query_arity)))

    out = AdornedProgram([], adorned_name(query_pred, adornment), adornment)
    worklist: List[PyTuple[PredKey, str]] = [((query_pred, query_arity), adornment)]
    seen: Set[PyTuple[PredKey, str]] = set()

    while worklist:
        (pred, arity), pred_adornment = key_adorn = worklist.pop()
        if key_adorn in seen:
            continue
        seen.add(key_adorn)
        new_name = adorned_name(pred, pred_adornment)
        out.origin[new_name] = (pred, pred_adornment)
        for rule in by_pred.get((pred, arity), []):
            out.rules.append(
                _adorn_rule(
                    rule, new_name, pred_adornment, defined, is_builtin,
                    worklist, bindable,
                )
            )
    if (query_pred, query_arity) not in defined:
        raise RewriteError(
            f"query predicate {query_pred}/{query_arity} is not defined "
            f"by the module's rules"
        )
    return out


def _restrict(adornment: str, bindable: "FrozenSet[int] | None") -> str:
    """``adornment`` with every position outside ``bindable`` freed."""
    if bindable is None:
        return adornment
    return "".join(
        flag if position in bindable else "f"
        for position, flag in enumerate(adornment)
    )


def _adorn_rule(
    rule: Rule,
    new_head_name: str,
    head_adornment: str,
    defined: Set[PredKey],
    is_builtin: Callable[[str, int], bool],
    worklist: List[PyTuple[PredKey, str]],
    bindable: Dict[PredKey, FrozenSet[int]],
) -> Rule:
    # Variables bound on entry: those in head arguments at 'b' positions.
    # Aggregated head positions never receive bindings from the caller (the
    # aggregate value is computed, not matched), so they stay free.
    aggregate_positions = {position for position, _ in rule.head_aggregates}
    bound_vars: Set[int] = set()
    for position, (arg, flag) in enumerate(zip(rule.head.args, head_adornment)):
        if flag == "b" and position not in aggregate_positions:
            bound_vars.update(var.vid for var in arg.variables())

    new_body: List[Literal] = []
    for literal in rule.body:
        if is_builtin(literal.pred, literal.arity):
            new_body.append(literal)
            # builtins like '=' bind their variables when they succeed
            if not literal.negated:
                for arg in literal.args:
                    bound_vars.update(var.vid for var in arg.variables())
            continue
        if literal.key in defined:
            body_adornment = _restrict(
                _literal_adornment(literal, bound_vars), bindable.get(literal.key)
            )
            worklist.append((literal.key, body_adornment))
            new_body.append(
                Literal(
                    adorned_name(literal.pred, body_adornment),
                    literal.args,
                    literal.negated,
                )
            )
        else:
            new_body.append(literal)
        if not literal.negated:
            for arg in literal.args:
                bound_vars.update(var.vid for var in arg.variables())

    return Rule(
        Literal(new_head_name, rule.head.args),
        tuple(new_body),
        rule.head_aggregates,
    )
