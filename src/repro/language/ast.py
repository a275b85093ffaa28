"""Abstract syntax for the CORAL declarative language.

A consulted file is a :class:`Program`: a sequence of module definitions,
top-level facts (loaded into base relations), queries, and commands.  Inside
a module (Section 5): exported predicates with their *query forms* (adornment
strings such as ``bfff``), optional annotations (Section 4, Section 5.5), and
Horn rules whose bodies may contain negated literals, builtin comparisons,
and arithmetic.

Aggregation in rule heads uses grouped arguments, e.g. the paper's Figure 3
``s_p_length(X, Y, min(<C>))``: the head argument is an :class:`Aggregation`
of the group expression ``<C>`` under ``min``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple as PyTuple

from ..terms import Arg, Var

#: aggregate function names accepted in heads and aggregate selections
AGGREGATE_FUNCTIONS = (
    "min", "max", "sum", "count", "any", "choice", "prod", "set", "bag"
)


@dataclass(frozen=True)
class Literal:
    """One predicate occurrence ``[not] pred(arg1, ..., argN)``."""

    pred: str
    args: PyTuple[Arg, ...]
    negated: bool = False

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def key(self) -> PyTuple[str, int]:
        """(name, arity) — how predicates are identified system-wide."""
        return (self.pred, len(self.args))

    def __str__(self) -> str:
        if self.pred in ("<", ">", "<=", ">=", "==", "!=", "=") and len(self.args) == 2:
            # comparisons print infix so printed programs re-parse
            return f"{self.args[0]} {self.pred} {self.args[1]}"
        inner = ", ".join(str(arg) for arg in self.args)
        body = f"{self.pred}({inner})" if self.args else self.pred
        return f"not {body}" if self.negated else body


def answer_variables(literal: Literal) -> Dict[str, Var]:
    """The variables a query's answers report, by name, in first-occurrence
    order (``_`` excluded).  The order is the wire's too: a batch row
    carries the binding values in it, after the tuple."""
    named: Dict[str, Var] = {}
    for arg in literal.args:
        for var in arg.variables():
            if var.name != "_":
                named.setdefault(var.name, var)
    return named


@dataclass(frozen=True)
class Aggregation:
    """A grouped head argument such as ``min(<C>)`` (Figure 3).

    ``function`` is one of :data:`AGGREGATE_FUNCTIONS`; ``expr`` is the term
    inside the angle brackets (usually a variable).
    """

    function: str
    expr: Arg

    def __str__(self) -> str:
        return f"{self.function}(<{self.expr}>)"


@dataclass(frozen=True)
class Rule:
    """``head :- body.`` — a fact when the body is empty.

    ``head_aggregates`` maps head argument positions to their
    :class:`Aggregation` when the rule is a grouping rule; the plain head
    argument at such a position is a fresh variable standing for the
    aggregate result.
    """

    head: Literal
    body: PyTuple[Literal, ...] = ()
    head_aggregates: PyTuple[PyTuple[int, Aggregation], ...] = ()

    def __str__(self) -> str:
        head = _head_to_str(self)
        if not self.body:
            return f"{head}."
        body = ", ".join(str(lit) for lit in self.body)
        return f"{head} :- {body}."


def _head_to_str(rule: Rule) -> str:
    aggregates = dict(rule.head_aggregates)
    parts = []
    for position, arg in enumerate(rule.head.args):
        agg = aggregates.get(position)
        parts.append(str(agg) if agg else str(arg))
    return f"{rule.head.pred}({', '.join(parts)})" if parts else rule.head.pred


@dataclass(frozen=True)
class ExportDecl:
    """``export pred(form1, form2, ...).`` — the query forms (adornments)
    under which a module predicate may be called (Section 2)."""

    pred: str
    arity: int
    forms: PyTuple[str, ...]

    def __str__(self) -> str:
        return f"export {self.pred}({', '.join(self.forms)})."


# ---------------------------------------------------------------------------
# annotations (Sections 4, 5.4, 5.5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateSelection:
    """``@aggregate_selection p(X,Y,P,C) (X,Y) min(C).`` (Section 5.5.2).

    Facts of ``p`` are grouped by the values of ``group_vars``; within each
    group only facts optimal under ``function`` applied to ``target`` are
    retained (``any`` retains a single arbitrary witness).
    """

    pred: str
    pattern: PyTuple[Arg, ...]
    group_vars: PyTuple[Var, ...]
    function: str
    target: Optional[Arg]  # None for e.g. count-style selections

    @property
    def arity(self) -> int:
        return len(self.pattern)


def group_positions(selections: Sequence[AggregateSelection]) -> FrozenSet[int]:
    """The argument positions that hold a grouping variable of *every* one
    of these selections (all on one predicate).

    A selection compares all the facts of a group, so these are the only
    positions a call may bind before evaluation: a binding anywhere else
    (a cost, a witness) would hide candidates from the selection, and is
    applied to the selected facts instead."""
    return frozenset(
        position
        for position in range(selections[0].arity)
        if all(
            isinstance(selection.pattern[position], Var)
            and selection.pattern[position] in selection.group_vars
            for selection in selections
        )
    )


@dataclass(frozen=True)
class IndexAnnotation:
    """``@make_index pred(pattern)(keys).`` (Section 5.5.1)."""

    pred: str
    pattern: PyTuple[Arg, ...]
    key_terms: PyTuple[Arg, ...]

    @property
    def arity(self) -> int:
        return len(self.pattern)


@dataclass(frozen=True)
class FlagAnnotation:
    """A parameterless or simply parameterized module-level control
    annotation, e.g. ``@pipelining.``, ``@save_module.``, ``@multiset p.``"""

    name: str
    argument: Optional[str] = None


#: module-level flags the optimizer understands
MODULE_FLAGS = {
    "pipelining",
    "materialization",
    "save_module",
    "lazy_eval",
    "eager_eval",
    "ordered_search",
    "no_rewriting",
    "magic",
    "supplementary_magic",
    "supplementary_magic_goalid",
    "context_factoring",
    "no_existential_rewriting",
    "bsn",
    "psn",
    "multiset",
    "compiled",
    # cross-query answer memoization (repro.eval.memo): @memo opts a module
    # in under Session(memo="annotated"); @no_memo always opts out
    "memo",
    "no_memo",
    # ablation switches (benchmarking the optimizer's run-time decisions)
    "no_backjumping",
    "no_index_selection",
    # opt-in bound-first join ordering (the default is the user's textual
    # left-to-right order, Section 4.1)
    "join_ordering",
}


@dataclass
class ModuleDecl:
    """``module m.`` ... ``end_module.`` — the unit of compilation and of
    evaluation-strategy choice (Section 5)."""

    name: str
    exports: List[ExportDecl] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)
    aggregate_selections: List[AggregateSelection] = field(default_factory=list)
    index_annotations: List[IndexAnnotation] = field(default_factory=list)
    flags: List[FlagAnnotation] = field(default_factory=list)

    def flag(self, name: str) -> Optional[FlagAnnotation]:
        for annotation in self.flags:
            if annotation.name == name:
                return annotation
        return None

    def has_flag(self, name: str) -> bool:
        return self.flag(name) is not None

    def defined_predicates(self) -> List[PyTuple[str, int]]:
        seen: Dict[PyTuple[str, int], None] = {}
        for rule in self.rules:
            seen.setdefault(rule.head.key)
        return list(seen)

    def __str__(self) -> str:
        lines = [f"module {self.name}."]
        lines += [str(e) for e in self.exports]
        lines += [str(r) for r in self.rules]
        lines.append("end_module.")
        return "\n".join(lines)


@dataclass(frozen=True)
class Query:
    """``?- lit.`` or ``lit?`` — a top-level query."""

    literal: Literal

    def __str__(self) -> str:
        return f"?- {self.literal}."


@dataclass(frozen=True)
class Command:
    """An interactive command outside modules (e.g. ``@consult file.``)."""

    name: str
    arguments: PyTuple[str, ...] = ()


@dataclass
class Program:
    """Everything read from one source text, in order."""

    modules: List[ModuleDecl] = field(default_factory=list)
    facts: List[Rule] = field(default_factory=list)
    queries: List[Query] = field(default_factory=list)
    commands: List[Command] = field(default_factory=list)
    index_annotations: List[IndexAnnotation] = field(default_factory=list)

    def module(self, name: str) -> ModuleDecl:
        for module in self.modules:
            if module.name == name:
                return module
        raise KeyError(name)
