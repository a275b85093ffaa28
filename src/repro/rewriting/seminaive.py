"""Delta rules: the one rule structure under the semi-naive fixpoint,
save-module resumption and view maintenance.

Section 5.3: *"In order to perform incremental evaluation of rules across
multiple iterations, CORAL uses the semi-naive evaluation technique.  This
technique consists of a rule rewriting part performed at compile time, which
creates versions of rules with delta relations, and an evaluation part."*

Section 5.1 gives every rule one precomputed "semi-naive rule structure",
and Behrend's *Uniform Fixpoint Approach* (PAPERS.md) observes that update
propagation is the same set of delta rules, seeded with the change.  A
:class:`DeltaRule` is that structure: a source rule, the order its body
joins in, and the position of its *seed* literal, which reads a *source*
the caller supplies (:data:`repro.eval.join.Source`).  Every other
literal reads its relation's full extent — except a recursive literal of
the SCC being evaluated, which reads the triangular window: everything up
to the start of the last iteration (``cur``) before the seed, everything
before it (``prev``) after the seed.  That covers every new combination
exactly once.

:func:`delta_rules` builds them all.  Three callers seed them from three
sources:

* the fixpoint (:func:`seminaive_rewrite`): one version per recursive body
  position, seeded with the last iteration's arrivals ``[prev, cur)``;
* save-module resumption (Section 5.4.2): one version per non-recursive
  positive position, seeded with what arrived at that relation since the
  SCC last ran (read past a watermark, not a mark);
* view maintenance (:mod:`repro.eval.maintenance`): one join per positive
  position, seed first and the rest bound-first, seeded with a wave's
  changed tuples.

Rules with no recursive body literal fire once, before iteration begins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Collection,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from ..language.ast import Literal, Rule

PredKey = PyTuple[str, int]

#: orders the rest of a body around its seed literal (the seed runs first)
BodyOrder = Callable[[Sequence[Literal], Literal], Sequence[Literal]]


@dataclass(frozen=True)
class DeltaRule:
    """One version of one source rule: its body in join order, the position
    of the seed literal (-1: none — a once rule, or a naive version), and
    the positions that read a triangular window."""

    rule: Rule
    body: PyTuple[Literal, ...]
    seed: int = -1
    recursive: FrozenSet[int] = frozenset()
    #: the source rule's index in the SCC's rule list
    source_index: int = -1

    @property
    def head(self) -> Literal:
        return self.rule.head

    @property
    def head_aggregates(self):
        return self.rule.head_aggregates

    def __str__(self) -> str:
        def marked(position: int, literal: Literal) -> str:
            if position == self.seed:
                return f"{literal}·δ"
            if position in self.recursive and position > self.seed:
                return f"{literal}·old"
            return str(literal)

        body = ", ".join(
            marked(position, literal) for position, literal in enumerate(self.body)
        )
        return f"{self.head} :- {body}."


def recursive_body_positions(
    rule: Rule,
    recursive: Set[PredKey],
    is_builtin: Callable[[str, int], bool],
) -> List[int]:
    """Body positions of ``rule`` that are recursive in the given SCC: the
    positive, non-builtin occurrences of the SCC's own predicates.  Shared
    by :func:`seminaive_rewrite` and the push compiler's rule classifier (a
    negated literal in the same SCC would make the program unstratified and
    is rejected upstream)."""
    return [
        position
        for position, literal in enumerate(rule.body)
        if not literal.negated
        and literal.key in recursive
        and not is_builtin(literal.pred, literal.arity)
    ]


def delta_rules(
    rules: Sequence[Rule],
    is_builtin: Callable[[str, int], bool],
    seeds: Optional[Collection[PredKey]] = None,
    recursive: Collection[PredKey] = frozenset(),
    order: Optional[BodyOrder] = None,
) -> List[DeltaRule]:
    """One delta rule per rule and per positive, non-builtin body literal
    of a predicate in ``seeds`` (of any predicate when None).

    Literals of ``recursive`` predicates other than the seed read the
    triangular window.  Without ``order`` the body keeps its written order
    and the seed its place; with it, the seed runs first and ``order``
    arranges the rest."""
    out: List[DeltaRule] = []
    for index, rule in enumerate(rules):
        for position, seed in enumerate(rule.body):
            if (
                seed.negated
                or (seeds is not None and seed.key not in seeds)
                or is_builtin(seed.pred, seed.arity)
            ):
                continue
            body = rule.body
            if order is not None:
                rest = body[:position] + body[position + 1:]
                body, position = (seed, *order(rest, seed)), 0
            windows = frozenset(
                other
                for other, literal in enumerate(body)
                if other != position
                and not literal.negated
                and literal.key in recursive
                and not is_builtin(literal.pred, literal.arity)
            )
            out.append(DeltaRule(rule, body, position, windows, index))
    return out


def seminaive_rewrite(
    rules: Sequence[Rule],
    recursive: Set[PredKey],
    is_builtin: Callable[[str, int], bool],
    naive: bool = False,
) -> PyTuple[List[DeltaRule], List[DeltaRule]]:
    """Split ``rules`` into (once rules, delta rules) for one SCC.

    ``naive`` is the Bancilhon (1985) baseline instead (benchmark E2): each
    recursive rule is one version that reads every literal's full extent
    on every iteration — the rederivation semi-naive exists to avoid."""
    once: List[DeltaRule] = []
    plain: List[DeltaRule] = []
    for index, rule in enumerate(rules):
        version = DeltaRule(rule, rule.body, source_index=index)
        if recursive_body_positions(rule, recursive, is_builtin):
            plain.append(version)
        else:
            once.append(version)
    if naive:
        return once, plain
    return once, delta_rules(rules, is_builtin, recursive, recursive)
