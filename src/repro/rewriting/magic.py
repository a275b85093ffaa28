"""Magic Templates rewriting (Ramakrishnan 1988; paper Section 4.1).

Every adorned rule is guarded by a *magic* literal asserting that the head's
bound arguments are actually demanded by some (sub)query, and for every
derived body literal a *magic rule* derives the subqueries it receives.  The
query itself seeds the magic relation of the query predicate.

The result types here (:class:`RewrittenProgram`) are shared by the other
selection-propagating rewritings (supplementary magic, GoalId indexing,
context factoring): they all produce a rule set, the name of the answer
predicate, and a description of how to seed evaluation from a concrete
query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from ..language.ast import Literal, Rule
from .adorn import AdornedProgram

PredKey = PyTuple[str, int]

#: prefix for magic predicate names
MAGIC_PREFIX = "m_"


@dataclass
class RewrittenProgram:
    """A module's rules after selection-propagating rewriting."""

    #: the full rewritten rule set
    rules: List[Rule]
    #: the predicate whose relation holds the query's answers
    answer_pred: str
    #: arity of the answer predicate (same as the original query predicate)
    answer_arity: int
    #: the magic predicate seeded from the query, or None for no rewriting
    magic_pred: Optional[str]
    #: query argument positions (into the original query literal) that feed
    #: the magic seed, in order
    bound_positions: PyTuple[int, ...]
    #: which rewriting produced this
    technique: str
    #: adorned-name -> (original name, adornment)
    origin: Dict[str, PyTuple[str, str]] = field(default_factory=dict)
    #: when the answer predicate covers only some original query argument
    #: positions (context factoring), which ones, in answer-arg order;
    #: None means the answer predicate has the query's full arity
    answer_positions: Optional[PyTuple[int, ...]] = None


def magic_literal(literal: Literal, adornment: str) -> Literal:
    """The magic literal of an adorned literal: its bound arguments under
    the magic predicate name."""
    bound_args = tuple(
        arg for arg, flag in zip(literal.args, adornment) if flag == "b"
    )
    return Literal(MAGIC_PREFIX + literal.pred, bound_args)


def magic_rewrite(
    adorned: AdornedProgram,
    is_builtin: Callable[[str, int], bool],
) -> RewrittenProgram:
    """The (non-supplementary) Magic Templates transformation."""
    derived = {rule.head.key for rule in adorned.rules}
    out_rules: List[Rule] = []

    for rule in adorned.rules:
        head_adornment = adorned.origin[rule.head.pred][1]
        guard = magic_literal(rule.head, head_adornment)
        prefix: List[Literal] = [guard]
        for literal in rule.body:
            if literal.key in derived and not is_builtin(
                literal.pred, literal.arity
            ):
                body_adornment = adorned.origin[literal.pred][1]
                out_rules.append(
                    Rule(magic_literal(literal, body_adornment), tuple(prefix))
                )
            if not literal.negated:
                prefix.append(literal)
        out_rules.append(
            Rule(rule.head, (guard,) + rule.body, rule.head_aggregates)
        )

    query_original, query_adornment = adorned.origin[adorned.query_pred]
    return RewrittenProgram(
        rules=out_rules,
        answer_pred=adorned.query_pred,
        answer_arity=len(query_adornment),
        magic_pred=MAGIC_PREFIX + adorned.query_pred,
        bound_positions=tuple(
            position
            for position, flag in enumerate(query_adornment)
            if flag == "b"
        ),
        technique="magic",
        origin=dict(adorned.origin),
    )


def no_rewriting(
    rules: Sequence[Rule], query_pred: str, query_arity: int
) -> RewrittenProgram:
    """The identity 'rewriting': evaluate the whole program bottom-up and
    apply the query as a final selection (Section 4.1: all-free forms
    ignore bindings except for a final selection)."""
    return RewrittenProgram(
        rules=list(rules),
        answer_pred=query_pred,
        answer_arity=query_arity,
        magic_pred=None,
        bound_positions=(),
        technique="none",
    )
