"""Pipelined (top-down) module evaluation.

Section 5.2: *"For pipelining, which is essentially top-down evaluation, the
rule evaluation code is designed to work in a co-routining fashion — when
rule evaluation is invoked, using the get-next-tuple interface, it generates
an answer (if there is one) and transfers control back to the consumer of
answers.  Control is transferred back to the (suspended) rule evaluation
when more answers are desired."*

Python generators give the suspend/resume structure directly: ``solve``
yields once per proof, bindings live in the shared environment while the
consumer holds each answer, and resuming the generator backtracks into the
search.  Rules are tried in program order and bodies solved left to right —
the guaranteed evaluation order that lets programmers use side-effecting
predicates (Section 5.2's third point).  No facts are stored: recomputation
is the price (benchmark E5), and left-recursive programs can loop forever,
exactly as in Prolog — a depth bound turns runaway recursion into an error.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..errors import EvaluationError, ModuleError
from ..language.ast import Literal, ModuleDecl, Rule
from ..relations import GeneratorTupleIterator, Tuple, TupleIterator
from ..terms import Arg, BindEnv, Trail, Var, rename_term, resolve, unify
from .context import EvalContext
from .join import fact_solutions

PredKey = PyTuple[str, int]

#: bound on subgoal nesting (runaway-recursion guard)
DEPTH_LIMIT = 4000


class PipelinedModule:
    """A module evaluated top-down, one answer at a time."""

    def __init__(self, ctx: EvalContext, module: ModuleDecl) -> None:
        for rule in module.rules:
            if rule.head_aggregates:
                raise ModuleError(
                    f"module {module.name}: grouping/aggregation requires "
                    f"materialized evaluation (remove @pipelining)"
                )
        self.ctx = ctx
        self.name = module.name
        #: rules per predicate, in the order they occur in the module
        #: definition (Section 5.1's pipelined module structure)
        self.rules_by_pred: Dict[PredKey, List[Rule]] = {}
        for rule in module.rules:
            self.rules_by_pred.setdefault(rule.head.key, []).append(rule)

    # -- resolution -------------------------------------------------------------

    def solve(
        self,
        literal: Literal,
        env: BindEnv,
        trail: Trail,
        depth: int = 0,
    ) -> Iterator[None]:
        """Enumerate proofs of ``literal``; bindings are in ``env`` while the
        consumer holds each one.

        When a profiler is installed, each subgoal's activation count and
        *inclusive* wall time (first pull to exhaustion, callees included)
        are recorded under the ``pipeline`` subgoal kind."""
        obs = self.ctx.obs
        if obs is None:
            yield from self._solve(literal, env, trail, depth)
            return
        token = obs.begin_subgoal("pipeline", literal.pred, literal.arity)
        try:
            yield from self._solve(literal, env, trail, depth)
        finally:
            obs.end_subgoal(token)

    def _solve(
        self,
        literal: Literal,
        env: BindEnv,
        trail: Trail,
        depth: int = 0,
    ) -> Iterator[None]:
        if self.ctx.limits is not None:
            # pipelined evaluation derives no stored facts, so the guard is
            # consulted per subgoal instead of per insertion
            self.ctx.limits.check(self.ctx.stats)
        if depth > DEPTH_LIMIT:
            raise EvaluationError(
                f"pipelined evaluation exceeded depth {DEPTH_LIMIT} "
                f"(left recursion? consider @materialization)"
            )
        builtin = self.ctx.builtins.lookup(literal.pred, literal.arity)
        if builtin is not None:
            if literal.negated:
                raise EvaluationError(
                    f"negation of builtin {literal.pred} is not supported"
                )
            mark = trail.mark()
            for _ in builtin.impl(literal.args, env, trail):
                yield None
            trail.undo_to(mark)
            return
        if literal.negated:
            positive = Literal(literal.pred, literal.args)
            mark = trail.mark()
            succeeded = False
            for _ in self.solve(positive, env, trail, depth + 1):
                succeeded = True
                break
            trail.undo_to(mark)
            if not succeeded:
                yield None
            return
        if literal.key in self.rules_by_pred:
            yield from self._solve_derived(literal, env, trail, depth)
            return
        yield from self._solve_stored(literal, env, trail)

    def _solve_derived(
        self, literal: Literal, env: BindEnv, trail: Trail, depth: int
    ) -> Iterator[None]:
        for rule in self.rules_by_pred[literal.key]:
            mapping: Dict[int, Var] = {}
            head_args = tuple(rename_term(arg, mapping) for arg in rule.head.args)
            body = tuple(
                Literal(
                    item.pred,
                    tuple(rename_term(arg, mapping) for arg in item.args),
                    item.negated,
                )
                for item in rule.body
            )
            mark = trail.mark()
            if all(
                unify(call_arg, env, head_arg, env, trail)
                for call_arg, head_arg in zip(literal.args, head_args)
            ):
                yield from self._solve_body(body, 0, env, trail, depth)
            trail.undo_to(mark)

    def _solve_body(
        self,
        body: Sequence[Literal],
        position: int,
        env: BindEnv,
        trail: Trail,
        depth: int,
    ) -> Iterator[None]:
        if position == len(body):
            self.ctx.stats.inferences += 1
            yield None
            return
        for _ in self.solve(body[position], env, trail, depth + 1):
            yield from self._solve_body(body, position + 1, env, trail, depth)

    def _solve_stored(
        self, literal: Literal, env: BindEnv, trail: Trail
    ) -> Iterator[None]:
        """A predicate not defined here: a base relation or another module's
        export — the same cursor interface either way (Section 5.6)."""
        relation = self.ctx.resolve(literal.pred, literal.arity)
        return fact_solutions(
            relation.scan(literal.args, env), literal.args, env, trail
        )

    # -- the relation-style surface -------------------------------------------------

    def answers(
        self, pred: str, pattern: Sequence[Arg], env: Optional[BindEnv]
    ) -> TupleIterator:
        """Answers to a query on an exported predicate, one at a time.

        Each pull resumes the frozen search; no answers are cached between
        calls (pipelining trades recomputation for space, Section 5)."""

        def generate() -> Iterator[Tuple]:
            call_env = BindEnv()
            trail = Trail()
            mapping: Dict[int, Var] = {}
            call_args = tuple(
                rename_term(resolve(arg, env), mapping) for arg in pattern
            )
            literal = Literal(pred, call_args)
            try:
                for _ in self.solve(literal, call_env, trail, 0):
                    yield Tuple(
                        tuple(resolve(arg, call_env) for arg in call_args)
                    )
            except RecursionError:
                # the host stack overflowed before our own depth bound:
                # same diagnosis, same remedy
                raise EvaluationError(
                    f"pipelined evaluation of {pred} exceeded the recursion "
                    f"depth (left recursion? consider @materialization)"
                ) from None

        return GeneratorTupleIterator(generate())
