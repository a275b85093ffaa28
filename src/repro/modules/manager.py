"""Modules, exports, and inter-module calls (paper Sections 5, 5.6).

*"Modules export the predicates that they define; a predicate exported from
one module is visible to all other modules, and can be used by them in
rules ... The interface to relations exported by a module makes no
assumptions about the evaluation of the module."*

The :class:`ModuleManager` registers every export as a resolver on the
evaluation context; any literal anywhere that mentions an exported predicate
scans an :class:`ExportedRelation`, whose cursor transparently sets up a
module call: pick a compiled query form matching the call's bound arguments,
check out the form's call skeleton (a :class:`MaterializedInstance` kept
between calls and reset, not rebuilt; the retained instance under
save-module), seed its magic relation, and stream answers — per fixpoint
iteration for lazy modules, all at once for eager ones, one suspended proof
at a time for pipelined modules.  The caller cannot tell the difference
(Section 5.6's inter-module call rule).
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from itertools import islice, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..errors import ModuleError
from ..eval.aggregates import AggregateConstraint
from ..eval.context import EvalContext, LocalScope
from ..eval.fixpoint import SCCEvaluator
from ..eval.ordered import OrderedSearchEvaluator
from ..eval.pipeline import PipelinedModule
from ..language.ast import ExportDecl, ModuleDecl
from ..optimizer import CompiledForm, Optimizer
from ..optimizer.capabilities import instance_capabilities
from ..relations import (
    HashRelation,
    MarkedRelation,
    Relation,
    RowCursor,
    Tuple,
    TupleIterator,
    Watermark,
)
from ..terms import Arg, BindEnv, Var, resolve
from ..terms.unify import flat_constants

PredKey = PyTuple[str, int]


class ModuleManager:
    """Loads modules, compiles query forms on demand, and routes calls."""

    def __init__(
        self, ctx: EvalContext, default_compiled: Optional[str] = None
    ) -> None:
        self.ctx = ctx
        self.optimizer = Optimizer(
            ctx.is_builtin, ctx.builtins.lookup, default_compiled=default_compiled
        )
        self.modules: Dict[str, ModuleDecl] = {}
        self.exports: Dict[PredKey, PyTuple[str, ExportDecl]] = {}
        self._compiled: Dict[PyTuple[str, str, str], CompiledForm] = {}
        self._pipelined: Dict[str, PipelinedModule] = {}
        self._saved: Dict[PyTuple[str, str, str], "MaterializedInstance"] = {}
        #: per form, its call skeleton while no call has it checked out
        self._idle: Dict[PyTuple[str, str, str], "MaterializedInstance"] = {}
        ctx.add_resolver(self._resolve)

    # -- loading --------------------------------------------------------------

    def load(self, module: ModuleDecl) -> None:
        if module.name in self.modules:
            raise ModuleError(f"module {module.name} is already loaded")
        defined = set(module.defined_predicates())
        for export in module.exports:
            key = (export.pred, export.arity)
            if key not in defined:
                raise ModuleError(
                    f"module {module.name} exports undefined predicate "
                    f"{export.pred}/{export.arity}"
                )
            if key in self.exports:
                other = self.exports[key][0]
                raise ModuleError(
                    f"{export.pred}/{export.arity} is already exported by "
                    f"module {other}"
                )
        self.modules[module.name] = module
        for export in module.exports:
            self.exports[(export.pred, export.arity)] = (module.name, export)
        if module.has_flag("pipelining"):
            self._pipelined[module.name] = PipelinedModule(self.ctx, module)
        if self.ctx.memo is not None:
            # loading can change what any predicate name resolves to
            self.ctx.memo.clear()
        if self.ctx.live is not None:
            self.ctx.live.on_modules_changed()

    def unload(self, name: str) -> None:
        module = self.modules.pop(name, None)
        if module is None:
            raise ModuleError(f"module {name} is not loaded")
        for export in module.exports:
            self.exports.pop((export.pred, export.arity), None)
        self._pipelined.pop(name, None)
        for cache in (self._compiled, self._saved, self._idle):
            for key in [k for k in cache if k[0] == name]:
                del cache[key]
        if self.ctx.memo is not None:
            self.ctx.memo.clear()
        if self.ctx.live is not None:
            self.ctx.live.on_modules_changed()

    # -- resolution (Section 5.6) -------------------------------------------------

    def _resolve(self, name: str, arity: int) -> Optional[Relation]:
        entry = self.exports.get((name, arity))
        if entry is None:
            return None
        module_name, export = entry
        return ExportedRelation(self, module_name, export)

    # -- compilation ------------------------------------------------------------

    def compiled_form(
        self, module_name: str, pred: str, adornment: str
    ) -> CompiledForm:
        key = (module_name, pred, adornment)
        compiled = self._compiled.get(key)
        if compiled is None:
            obs = self.ctx.obs
            with nullcontext() if obs is None else obs.span(
                "rewrite", cat="compile", module=module_name, pred=pred,
                form=adornment,
            ):
                compiled = self.optimizer.compile(
                    self.modules[module_name], pred, adornment
                )
            self._compiled[key] = compiled
        return compiled

    def choose_form(self, export: ExportDecl, call_bound: Sequence[bool]) -> str:
        """The declared query form to compile for, given which call
        arguments are actually bound: the form propagating the most
        bindings among those it can serve (a form may only mark 'b' where
        the call is bound).  Falls back to all-free evaluation (bindings
        become a final selection, Section 4.1) when no declared form fits."""
        best: Optional[str] = None
        for form in export.forms:
            usable = all(
                flag == "f" or call_bound[position]
                for position, flag in enumerate(form)
            )
            if usable and (best is None or form.count("b") > best.count("b")):
                best = form
        return best if best is not None else "f" * export.arity

    # -- instances --------------------------------------------------------------------

    def instance_for(
        self, module_name: str, pred: str, adornment: str
    ) -> "MaterializedInstance":
        compiled = self.compiled_form(module_name, pred, adornment)
        if compiled.save_module:
            key = (module_name, pred, adornment)
            instance = self._saved.get(key)
            if instance is None or instance.outdated():
                instance = MaterializedInstance(self.ctx, compiled, self.exports)
                self._saved[key] = instance
            return instance
        return MaterializedInstance(self.ctx, compiled, self.exports)

    def call(
        self, module_name: str, pred: str, form: str, call_args: Sequence[Arg]
    ) -> TupleIterator:
        """A plain call of ``pred(call_args)`` under ``form``, on the form's
        call skeleton: checked out, reset, and back when the call's cursor
        ends or is closed.  A re-entrant call or a second open cursor finds
        none idle and builds its own, as does one after the session changed
        what the form may run on (a module, a base relation, tracing).
        Memo entries and live views build private instances
        (:meth:`instance_for`); save-module calls use the retained one."""
        key = (module_name, pred, form)
        compiled = self.compiled_form(module_name, pred, form)
        instance = self._idle.pop(key, None)
        if (
            instance is not None
            and instance.compiled is compiled
            and instance.capabilities
            == instance_capabilities(compiled, self.ctx, self.exports)
        ):
            instance.reset()
        else:
            instance = self.instance_for(module_name, pred, form)
            if not instance.compiled.save_module:
                instance.home(self._idle, key)  # the form's skeleton
        return instance.call(call_args)


class ExportedRelation(Relation):
    """The relation face of an exported predicate: scanning it *is* calling
    the module (Section 5.6's get-next-tuple rule)."""

    def __init__(
        self, manager: ModuleManager, module_name: str, export: ExportDecl
    ) -> None:
        super().__init__(export.pred, export.arity)
        self.manager = manager
        self.module_name = module_name
        self.export = export

    def insert(self, tup: Tuple) -> bool:
        raise ModuleError(
            f"{self.name}/{self.arity} is derived by module "
            f"{self.module_name}; insert facts into base relations instead"
        )

    def delete(self, tup: Tuple) -> bool:
        raise ModuleError(f"{self.name}/{self.arity} is a derived relation")

    def __len__(self) -> int:
        return 0  # unknowable without evaluating; cursors drive evaluation

    def scan(
        self,
        pattern: Optional[Sequence[Arg]] = None,
        env: Optional[BindEnv] = None,
    ) -> TupleIterator:
        self.manager.ctx.stats.module_calls += 1
        obs = self.manager.ctx.obs
        if obs is not None:
            obs.event("module.call", cat="module", module=self.module_name,
                      pred=f"{self.name}/{self.arity}")
        resolved: List[Arg] = (
            [Var("_") for _ in range(self.arity)]  # an open scan: all free
            if pattern is None else [resolve(arg, env) for arg in pattern]
        )
        bound = [arg.is_ground() for arg in resolved]

        pipelined = self.manager._pipelined.get(self.module_name)
        if pipelined is not None:
            return pipelined.answers(self.name, resolved, None)

        memo = self.manager.ctx.memo
        if memo is not None:
            served = memo.lookup(self.module_name, self.export, resolved, bound)
            if served is not None:
                return served

        form = self.manager.choose_form(self.export, bound)
        return self.manager.call(self.module_name, self.name, form, resolved)


class MaterializedInstance:
    """One (possibly retained) evaluation of a compiled query form.

    By default the relations computed here are discarded when the call ends
    (Section 5.4.2): a plain call's instance is its form's call skeleton,
    emptied by :meth:`reset` at the next checkout.  Under ``@save_module``
    the manager keeps the instance, later calls seed additional magic
    facts, and the semi-naive fixpoint resumes — marks and watermarks
    guarantee derivations are not repeated across calls.  Resumption also
    absorbs inserts into base relations; anything it cannot absorb makes
    the instance :meth:`outdated`.
    """

    def __init__(
        self, ctx: EvalContext, compiled: CompiledForm, exports: Dict
    ) -> None:
        self.ctx = ctx
        self.compiled = compiled
        #: the form's verdicts with the session's loaded modules and base
        #: relations taken into account (optimizer/capabilities.py)
        self.capabilities = instance_capabilities(compiled, ctx, exports)
        self.scope = LocalScope(ctx, multiset_preds=set(compiled.multiset_preds))
        self._active = False
        #: a call skeleton's (idle map, key), set by the manager; None for
        #: a private instance, whose answers a consumer reads after the call
        self._home: Optional[PyTuple[Dict, PyTuple[str, str, str]]] = None

        # declare every local predicate up front and attach indexes
        for plan in compiled.scc_plans:
            for pred in plan.preds:
                self.scope.declare_local(pred[0], pred[1])
        answer_key = (compiled.rewritten.answer_pred, compiled.rewritten.answer_arity)
        self.scope.declare_local(*answer_key)
        if compiled.rewritten.magic_pred is not None:
            self.scope.declare_local(
                compiled.rewritten.magic_pred,
                len(compiled.rewritten.bound_positions),
            )
        for (name, arity), specs in compiled.index_specs.items():
            relation = self.scope.declare_local(name, arity)
            for spec in specs:
                relation.add_index(spec)
        for (name, arity), specs in compiled.base_index_specs.items():
            if self.scope.is_local(name, arity):
                continue
            relation = ctx.resolve(name, arity)
            if isinstance(relation, HashRelation):
                for spec in specs:
                    relation.add_index(spec)

        #: what one call's pushed SCCs leave the SCCs after them and its
        #: cursor (compilemod.push), made by the first reset that pushes;
        #: emptied when the call's evaluation ends, so neither a retained
        #: instance's memory, save-module resumption nor maintenance (which
        #: edits these relations unannounced) keeps it
        self._handoff = None
        self.reset()

    def reset(self) -> None:
        """Empty relations, and fresh aggregate constraints, Ordered Search
        state, push compiler and SCC evaluators (cheap: their executors are
        the scope's).  ``__init__`` ends here, as does a skeleton's checkout."""
        compiled, scope, obs = self.compiled, self.scope, self.ctx.obs
        for relation in scope.local.values():
            relation.clear()
        scope.constraints.clear()
        for (name, arity), selection in compiled.constraints:
            scope.add_constraint(name, arity, AggregateConstraint(selection))
        self._calls = 0
        #: save-module only: per read, a watermark on it and its size as the
        #: last call began (None: it numbers no insertions)
        self._bases: Dict[PredKey, Optional[PyTuple[Watermark, int]]] = {}
        #: the push backend's compiler when the form is compiled, None for
        #: the interpreter; a refused ``push`` verdict and every SCC left to
        #: the interpreter are recorded in its stats
        self.compiler = None
        pushed = None
        if compiled.compiled:
            from ..compilemod.push import HandOff, PushCompiler, PushSCCEvaluator

            self.compiler = PushCompiler()
            if self.compiler.admits(compiled, self.capabilities, obs):
                if self._handoff is None:
                    self._handoff = HandOff()
                pushed = partial(PushSCCEvaluator, compiler=self.compiler,
                                 handoff=self._handoff)
        self.evaluators: List = []
        self._ordered = None
        if compiled.ordered_search:
            self._ordered = OrderedSearchEvaluator(scope, compiled)
            return
        for plan in compiled.scc_plans:
            if pushed is not None and self.compiler.admits_scc(compiled, plan, obs):
                self.evaluators.append(self._evaluator(pushed, plan))
            else:
                self.evaluators.append(self._evaluator(SCCEvaluator, plan))

    def _evaluator(self, make, plan) -> SCCEvaluator:
        compiled = self.compiled
        return make(self.scope, plan, strategy=compiled.strategy,
                    use_backjumping=compiled.use_backjumping)

    def home(self, idle: Dict, key: PyTuple[str, str, str]) -> None:
        """Make this instance its form's call skeleton, given back to
        ``idle[key]`` after each call.  Only a skeleton's own call reads its
        relations, so its pushed runs keep some rows out of them, as value
        columns: the outputs of SCCs pushed whole that no SCC reads through
        the interpreter, and the answers if context factoring rebuilds them
        for the cursor anyway."""
        self._home = (idle, key)
        if self._handoff is None:
            return
        whole = [getattr(e, "whole", False) for e in self.evaluators]
        keep = {p for e, w in zip(self.evaluators, whole) if w for p in e.plan.preds}
        keep.difference_update(
            literal.key for e, w in zip(self.evaluators, whole) if not w
            for rule in e.plan.rules for literal in rule.body
        )
        rewritten = self.compiled.rewritten
        if rewritten.answer_positions is None:
            keep.discard((rewritten.answer_pred, rewritten.answer_arity))
        self._handoff.keep = frozenset(keep)

    # -- the call protocol ----------------------------------------------------------

    def call(self, call_args: Sequence[Arg]) -> TupleIterator:
        """Answer the subquery ``pred(call_args)``: seed, evaluate, stream."""
        if self._active:
            raise ModuleError(
                f"module {self.compiled.module_name} (save_module) was "
                f"invoked recursively; the paper's restriction (Section "
                f"5.4.2) forbids this"
            )
        rewritten = self.compiled.rewritten
        is_resumption = self._calls > 0
        self._calls += 1
        if self.compiled.save_module:
            self._bases = {}
            for key in self.compiled.reads:
                relation = self.scope.relation(*key)
                self._bases[key] = (
                    (Watermark(relation), len(relation))
                    if isinstance(relation, MarkedRelation)
                    else None
                )

        if rewritten.magic_pred is not None:
            seed = Tuple(tuple(call_args[p] for p in rewritten.bound_positions))
            self.ctx.stats.subgoals += 1
            self.scope.insert_fact(rewritten.magic_pred, len(seed.args), seed)
        if is_resumption:
            self._reset_aggregate_sccs()
        factored = rewritten.answer_positions is not None
        # kept answers arrive all at once: a call that keeps them evaluates now
        kept = self._handoff is not None and \
            (rewritten.answer_pred, rewritten.answer_arity) in self._handoff.keep
        if self.compiled.lazy and self._ordered is None and not kept:
            return RowCursor(self._stream(call_args), factored)
        self._active = True
        try:
            if self._ordered is not None:
                self._ordered.solve_query(rewritten.answer_pred, tuple(call_args))
            for evaluator in self.evaluators:
                evaluator.run_to_completion()
            rows, plain = self._answers(call_args, 0, None)
        except BaseException:
            self._go_home()
            raise
        finally:
            self._finish()
        # a factored answer is built for this call alone; any other is the
        # answer relation's own
        return RowCursor(self._stream(call_args, rows), factored, plain)

    def outdated(self) -> bool:
        """Must the next save-module call start from a fresh instance?
        Resumption absorbs inserts into base relations (its versions read
        each one's unconsumed slice) but retracts nothing.  So yes when a
        read was rebound or numbers no insertions to tell what changed
        (another module's export, a persistent relation), when a base
        dependency lost a tuple since the last call began, or when one
        gained a tuple and the ``absorb`` verdict is a refusal."""
        if self._active:
            return False  # call() reports the recursive invocation
        absorbs = self.capabilities.absorb is None
        for key, read in self._bases.items():
            if read is None or self.scope.relation(*key) is not read[0].relation:
                return True
            seen, size = read
            arrived = len(seen.relation.inserted_after(seen.seqno))
            if size + arrived != len(seen.relation) or (arrived and not absorbs):
                return True
        return False

    def _reset_aggregate_sccs(self) -> None:
        """On save-module resumption, grouped-aggregation strata must be
        recomputed from scratch: their old facts may be stale (a new group
        member can change a min)."""
        for index, plan in enumerate(self.compiled.scc_plans):
            if any(rule.head_aggregates for rule in plan.once_rules):
                for pred in plan.preds:
                    self.scope.local[pred].clear()
                self.evaluators[index] = self._evaluator(SCCEvaluator, plan)

    def _stream(self, call_args: Sequence[Arg], rows=None) -> Iterator:
        """The call's answers: ``rows`` if it was evaluated, else it
        evaluates here, streaming new answers at the end of every fixpoint
        iteration (Sections 5.4.3, 5.6).  A skeleton goes home after them."""
        try:
            if rows is not None:
                yield from rows
                return
            rewritten = self.compiled.rewritten
            answer_rel = self.scope.local[(rewritten.answer_pred, rewritten.answer_arity)]
            read_mark = 0
            self._active = True
            for evaluator in self.evaluators:
                for _count in evaluator.iterations():
                    frontier = answer_rel.mark()
                    if frontier > read_mark:
                        yield from _tuples(*self._answers(call_args, read_mark, frontier))
                        read_mark = frontier
            yield from _tuples(*self._answers(call_args, read_mark, None))
        finally:
            if rows is None:
                self._finish()
            self._go_home()

    def _go_home(self) -> None:
        """The call is over or closed: a skeleton is idle again."""
        if self._home is not None:
            idle, key = self._home
            idle.setdefault(key, self)

    def _finish(self) -> None:
        """The call's evaluation is over: nothing handed on outlives it."""
        self._active = False
        if self._handoff is not None:
            self._handoff.clear()

    def _answers(
        self, call_args: Sequence[Arg], since: int, until: Optional[int]
    ) -> PyTuple[Iterator, bool]:
        """The answers in marks ``[since, until)`` of the answer relation,
        or the ones the pushed answer SCC kept for the cursor instead, and
        whether they are all plain rows.  Context factoring splices the
        call's bound constants back in, building each answer for this call
        alone: as plain rows of args when all are ground and match the call
        as they stand (its free positions hold distinct variables), else as
        :class:`Tuple` objects."""
        rewritten = self.compiled.rewritten
        answer_key = (rewritten.answer_pred, rewritten.answer_arity)
        answer_rel = self.scope.local[answer_key]
        positions = rewritten.answer_positions
        if positions is None:
            scan = answer_rel.scan(list(call_args), None, since=since, until=until)
            return scan, False
        held = self._handoff.held.pop(answer_key, None) if self._handoff else None
        ground = True
        if held is None:
            partials = list(answer_rel.scan(None, None, since=since, until=until))
            ground = all(partial.is_ground() for partial in partials)
            held = len(partials), list(zip(*[p.args for p in partials]))
        # by column, the bound ones repeating the call's constants: one zip
        # builds every row
        count, columns = held
        full: List = [repeat(arg) for arg in call_args]
        for column, position in zip(columns, positions):
            full[position] = column
        rows = islice(zip(*full), count)
        if ground and flat_constants([call_args[p] for p in positions]) == []:
            return rows, True
        return map(Tuple.ground if ground else Tuple, rows), False


def _tuples(rows: Iterator, plain: bool) -> Iterator[Tuple]:
    return map(Tuple.ground, rows) if plain else rows
