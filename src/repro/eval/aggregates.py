"""Aggregate selections and grouped aggregation.

Section 5.5.2 (aggregate selections): *"CORAL permits the user to specify an
aggregate selection on the predicate path ...  The system then checks (at
run-time) if a path fact is such that there is a path fact of lesser cost C
with the same value for X, Y, and if there is such a fact, the costlier path
fact is discarded."*  Without this pruning the Figure 3 program runs forever
on cyclic graphs; with it (plus the ``any(P)`` witness selection) a single
source query runs in O(E·V).

Grouped head aggregation (``s_p_length(X, Y, min(<C>))``) is evaluated at a
stratum boundary: the rule's body is enumerated completely, solutions are
grouped by the non-aggregated head arguments, and one fact per group is
produced — :func:`fold_groups`, shared by the fixpoint and Ordered Search
(:func:`fold_aggregate` implements the fold for each function).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from ..errors import EvaluationError
from ..language.ast import AggregateSelection, Aggregation
from ..relations import HashRelation, Tuple
from ..terms import Arg, BindEnv, Double, Int, Trail, Var, resolve
from ..terms.unify import match


# ---------------------------------------------------------------------------
# grouped head aggregation
# ---------------------------------------------------------------------------

def _numeric(value: Arg, function: str) -> float:
    if isinstance(value, (Int, Double)):
        return value.value
    raise EvaluationError(f"{function} aggregate over non-numeric value {value}")


class AggregateFold:
    """Incremental fold for one aggregate function over one group."""

    def __init__(self, function: str) -> None:
        self.function = function
        self._state: Any = None
        self._count = 0

    def add(self, value: Optional[Arg]) -> None:
        self._count += 1
        if self.function == "count":
            return
        if value is None:
            raise EvaluationError(f"aggregate {self.function} needs a value")
        if self.function in ("any", "choice"):
            if self._state is None:
                self._state = value
            return
        if self.function in ("set", "bag"):
            if self._state is None:
                self._state = []
            self._state.append(value)
            return
        number = _numeric(value, self.function)
        if self._state is None:
            self._state = number
        elif self.function == "min":
            self._state = min(self._state, number)
        elif self.function == "max":
            self._state = max(self._state, number)
        elif self.function == "sum":
            self._state = self._state + number
        elif self.function == "prod":
            self._state = self._state * number
        else:
            raise EvaluationError(f"unknown aggregate function {self.function}")

    def result(self) -> Arg:
        if self.function == "count":
            return Int(self._count)
        if self.function in ("set", "bag"):
            return _collect(self.function, self._state or [])
        if self._state is None:
            raise EvaluationError(f"aggregate {self.function} over empty group")
        if self.function in ("any", "choice"):
            return self._state
        value = self._state
        return Int(value) if isinstance(value, int) else Double(value)


def _collect(function: str, values: List[Arg]) -> Arg:
    """Set-grouping (the paper's "set-grouping and aggregation"): ``set``
    collects the distinct group values as a sorted list term, ``bag`` keeps
    one copy per derivation in derivation order."""
    from ..terms import make_list

    def order_key(value: Arg):
        try:
            from ..storage.serde import sort_key

            return (0, sort_key([value]))
        except Exception:
            return (1, str(value))

    if function == "bag":
        return make_list(values)
    distinct: List[Arg] = []
    seen = set()
    for value in values:
        try:
            key = value.ground_key()
        except ValueError:
            key = ("~", str(value))
        if key not in seen:
            seen.add(key)
            distinct.append(value)
    return make_list(sorted(distinct, key=order_key))


def fold_aggregate(function: str, values: List[Optional[Arg]]) -> Arg:
    fold = AggregateFold(function)
    for value in values:
        fold.add(value)
    return fold.result()


def fold_groups(
    head_args: Sequence[Arg],
    aggregates: Sequence[PyTuple[int, Aggregation]],
    env: BindEnv,
    solutions: Iterable[None],
    stats,
) -> List[Tuple]:
    """Grouped head aggregation, the one fold every evaluator uses: drain
    ``solutions`` (each an inference, its bindings in ``env``), group them
    by the non-aggregated head arguments and return one fact per group.

    Groups are keyed as facts are, so a grouping argument left non-ground
    by the body (``g(Y, count(<X>)) :- e(X).``) forms one group per variant
    and yields a non-ground fact, like any other rule head."""
    positions = dict(aggregates)
    plain = [p for p in range(len(head_args)) if p not in positions]
    groups: Dict[object, PyTuple[Tuple, Dict[int, list]]] = {}
    for _ in solutions:
        stats.inferences += 1
        group = Tuple(tuple(resolve(head_args[p], env) for p in plain))
        _, values = groups.setdefault(group.key(), (group, {}))
        for position, aggregation in positions.items():
            values.setdefault(position, []).append(
                resolve(aggregation.expr, env)
            )
    facts = []
    for group, values in groups.values():
        args: List[Optional[Arg]] = [None] * len(head_args)
        for position, value in zip(plain, group.args):
            args[position] = value
        for position, aggregation in positions.items():
            args[position] = fold_aggregate(
                aggregation.function, values.get(position, [])
            )
        facts.append(Tuple(tuple(args)))
    return facts


# ---------------------------------------------------------------------------
# aggregate selections (relation-level pruning)
# ---------------------------------------------------------------------------

class AggregateConstraint:
    """Run-time enforcement of one ``@aggregate_selection`` annotation.

    ``admit`` decides whether a candidate fact may enter the relation
    (deleting any stored facts it dominates); ``record`` updates the
    constraint's per-group state after a successful insert.
    """

    def __init__(self, selection: AggregateSelection) -> None:
        if selection.function not in ("min", "max", "any", "choice"):
            raise EvaluationError(
                f"aggregate selection supports min/max/any/choice, "
                f"not {selection.function}"
            )
        if selection.function in ("min", "max") and selection.target is None:
            raise EvaluationError(
                f"aggregate selection {selection.function} needs a target"
            )
        self.selection = selection
        #: group key -> (best numeric value, tuples currently at that value)
        self._best: Dict[Any, PyTuple[float, List[Tuple]]] = {}
        #: group key -> the single retained witness (any/choice)
        self._witness: Dict[Any, Tuple] = {}
        #: (group argument positions, target position or None) when the
        #: pattern is distinct variables and the grouping terms and target
        #: are among them: a fact is then read by position, not matched
        self._positions = self._positional(selection)
        #: the fact ``admit`` last looked at and what it extracted, for the
        #: ``record`` of the same fact that follows its insertion
        self._admitted: PyTuple[Optional[Tuple], Any] = (None, None)

    @staticmethod
    def _positional(
        selection: AggregateSelection,
    ) -> Optional[PyTuple[PyTuple[int, ...], Optional[int]]]:
        position_of = {
            arg.vid: position
            for position, arg in enumerate(selection.pattern)
            if isinstance(arg, Var)
        }
        if len(position_of) != len(selection.pattern):
            return None  # a constant, a structured term or a repeated variable
        target = selection.target
        wanted = tuple(selection.group_vars) + (() if target is None else (target,))
        if not all(
            isinstance(term, Var) and term.vid in position_of for term in wanted
        ):
            return None
        return (
            tuple(position_of[var.vid] for var in selection.group_vars),
            None if target is None else position_of[target.vid],
        )

    def _extract(self, tup: Tuple) -> Optional[PyTuple[Any, Optional[Arg]]]:
        """Match the selection pattern against a fact; return (group key,
        target value) or None when the pattern does not apply."""
        selection = self.selection
        args = tup.args
        if len(args) != len(selection.pattern):
            return None
        if self._positions is not None:
            group, target_at = self._positions
            target = args[target_at] if target_at is not None else None
            if not tup.is_ground() and not (
                all(args[position].is_ground() for position in group)
                and (target is None or target.is_ground())
            ):
                return None
            return tuple(args[position].ground_key() for position in group), target
        env = BindEnv()
        trail = Trail()
        try:
            for pattern_arg, fact_arg in zip(selection.pattern, args):
                if not match(pattern_arg, env, fact_arg, None, trail):
                    return None
            key_parts = []
            for var in selection.group_vars:
                value = resolve(var, env)
                if not value.is_ground():
                    return None
                key_parts.append(value.ground_key())
            target = (
                resolve(selection.target, env)
                if selection.target is not None
                else None
            )
            if target is not None and not target.is_ground():
                return None
            return tuple(key_parts), target
        finally:
            trail.undo_to(0)

    def admit(self, relation: HashRelation, tup: Tuple) -> bool:
        extracted = self._extract(tup)
        self._admitted = (tup, extracted)
        if extracted is None:
            return True  # pattern does not constrain this fact
        key, target = extracted
        function = self.selection.function

        if function in ("any", "choice"):
            return key not in self._witness

        value = _numeric(target, function) if target is not None else 0.0
        best = self._best.get(key)
        if best is None:
            return True
        best_value, best_tuples = best
        if value == best_value:
            return True
        better = value < best_value if function == "min" else value > best_value
        if not better:
            return False
        # the newcomer dominates: discard the stored costlier facts
        for dominated in best_tuples:
            relation.delete(dominated)
        del self._best[key]
        return True

    def record(self, relation: HashRelation, tup: Tuple) -> None:
        admitted, extracted = self._admitted
        if admitted is not tup:
            extracted = self._extract(tup)
        if extracted is None:
            return
        key, target = extracted
        function = self.selection.function
        if function in ("any", "choice"):
            self._witness.setdefault(key, tup)
            return
        value = _numeric(target, function) if target is not None else 0.0
        best = self._best.get(key)
        if best is None or (
            value < best[0] if function == "min" else value > best[0]
        ):
            self._best[key] = (value, [tup])
        elif value == best[0]:
            best[1].append(tup)
