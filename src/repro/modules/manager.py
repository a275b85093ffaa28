"""Modules, exports, and inter-module calls (paper Sections 5, 5.6).

*"Modules export the predicates that they define; a predicate exported from
one module is visible to all other modules, and can be used by them in
rules ... The interface to relations exported by a module makes no
assumptions about the evaluation of the module."*

The :class:`ModuleManager` registers every export as a resolver on the
evaluation context; any literal anywhere that mentions an exported predicate
scans an :class:`ExportedRelation`, whose cursor transparently sets up a
module call: pick a compiled query form matching the call's bound arguments,
instantiate (or reuse, under save-module) a :class:`MaterializedInstance`,
seed its magic relation, and stream answers — per fixpoint iteration for
lazy modules, all at once for eager ones, one suspended proof at a time for
pipelined modules.  The caller cannot tell the difference (Section 5.6's
inter-module call rule).
"""

from __future__ import annotations

from functools import partial
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
    GeneratorTupleIterator,
    HashRelation,
    MarkedRelation,
    Relation,
    Tuple,
    TupleIterator,
    Watermark,
)
from ..terms import Arg, BindEnv, resolve

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
        for key in [k for k in self._compiled if k[0] == name]:
            del self._compiled[key]
        for key in [k for k in self._saved if k[0] == name]:
            del self._saved[key]
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
            if obs is None:
                compiled = self.optimizer.compile(
                    self.modules[module_name], pred, adornment
                )
            else:
                with obs.span(
                    "rewrite",
                    cat="compile",
                    module=module_name,
                    pred=pred,
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

    def pipelined(self, module_name: str) -> Optional[PipelinedModule]:
        return self._pipelined.get(module_name)


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
            obs.event(
                "module.call",
                cat="module",
                module=self.module_name,
                pred=f"{self.name}/{self.arity}",
            )
        if pattern is None:
            resolved: List[Arg] = [  # an open scan: all-free call
                *(resolve(v, None) for v in _fresh_vars(self.arity))
            ]
        else:
            resolved = [resolve(arg, env) for arg in pattern]
        bound = [arg.is_ground() for arg in resolved]

        pipelined = self.manager.pipelined(self.module_name)
        if pipelined is not None:
            return pipelined.answers(self.name, resolved, None)

        memo = self.manager.ctx.memo
        if memo is not None:
            served = memo.lookup(self.module_name, self.export, resolved, bound)
            if served is not None:
                return served

        form = self.manager.choose_form(self.export, bound)
        instance = self.manager.instance_for(self.module_name, self.name, form)
        return instance.call(resolved)


def _fresh_vars(count: int):
    from ..terms import Var

    return [Var("_") for _ in range(count)]


class MaterializedInstance:
    """One (possibly retained) evaluation of a compiled query form.

    By default all relations computed here are discarded when the instance
    goes away at the end of the call (Section 5.4.2); under ``@save_module``
    the manager keeps the instance, later calls seed additional magic facts,
    and the semi-naive fixpoint resumes — marks and watermarks guarantee
    derivations are not repeated across calls.  Resumption also absorbs
    inserts into base relations; anything it cannot absorb makes the
    instance :meth:`outdated`.
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
        self._calls = 0
        #: save-module only: per read, a watermark on it and its size as the
        #: last call began (None: it numbers no insertions)
        self._bases: Dict[PredKey, Optional[PyTuple[Watermark, int]]] = {}

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
        for (name, arity), selection in compiled.constraints:
            self.scope.add_constraint(name, arity, AggregateConstraint(selection))

        #: the push backend's compiler when the form is compiled, None for
        #: the interpreter; a refused ``push`` verdict and every SCC left to
        #: the interpreter are recorded in its stats
        self.compiler = None
        #: interned rows one pushed SCC hands the next, for the rest of a
        #: call: dropped when its evaluation ends, so neither a retained
        #: instance's memory, save-module resumption nor maintenance (which
        #: edits these relations unannounced) keeps them
        self._push_rows: Dict = {}
        pushed = None
        if compiled.compiled:
            from ..compilemod.push import PushCompiler, PushSCCEvaluator

            self.compiler = PushCompiler()
            if self.compiler.admits(compiled, self.capabilities, ctx.obs):
                pushed = partial(
                    PushSCCEvaluator, compiler=self.compiler,
                    rows=self._push_rows,
                )
        if compiled.ordered_search:
            self.evaluators: List = []
            self._ordered = OrderedSearchEvaluator(self.scope, compiled)
        else:
            self._ordered = None
            self.evaluators = []
            for plan in compiled.scc_plans:
                make = SCCEvaluator
                if pushed is not None and self.compiler.admits_scc(
                    compiled, plan, ctx.obs
                ):
                    make = pushed
                self.evaluators.append(make(
                    self.scope,
                    plan,
                    strategy=compiled.strategy,
                    use_backjumping=compiled.use_backjumping,
                ))

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
            seed = Tuple(
                tuple(call_args[position] for position in rewritten.bound_positions)
            )
            self.ctx.stats.subgoals += 1
            self.scope.insert_fact(
                rewritten.magic_pred, len(seed.args), seed
            )
        if is_resumption:
            self._reset_aggregate_sccs()

        if self._ordered is not None:
            return self._eager_answers(
                call_args,
                lambda: self._ordered.solve_query(
                    self.compiled.rewritten.answer_pred, tuple(call_args)
                ),
            )
        if self.compiled.lazy:
            cursor = GeneratorTupleIterator(self._lazy_answers(call_args))
            # its answers come from _answer_cursor, call by call
            cursor.owned = rewritten.answer_positions is not None
            return cursor
        return self._eager_answers(call_args, self._run_all)

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

    def _run_all(self) -> None:
        for evaluator in self.evaluators:
            evaluator.run_to_completion()

    def _reset_aggregate_sccs(self) -> None:
        """On save-module resumption, grouped-aggregation strata must be
        recomputed from scratch: their old facts may be stale (a new group
        member can change a min)."""
        for index, plan in enumerate(self.compiled.scc_plans):
            if any(rule.head_aggregates for rule in plan.once_rules):
                for pred in plan.preds:
                    self.scope.local[pred].clear()
                self.evaluators[index] = SCCEvaluator(
                    self.scope,
                    plan,
                    strategy=self.compiled.strategy,
                    use_backjumping=self.compiled.use_backjumping,
                )

    def _eager_answers(self, call_args: Sequence[Arg], run) -> TupleIterator:
        self._active = True
        try:
            run()
        finally:
            self._finish()
        return self._answer_cursor(call_args)

    def _lazy_answers(self, call_args: Sequence[Arg]) -> Iterator[Tuple]:
        """Answers at the end of every fixpoint iteration (Sections 5.4.3,
        5.6): run one iteration, flush new matching answers, repeat."""
        rewritten = self.compiled.rewritten
        answer_rel = self.scope.local[
            (rewritten.answer_pred, rewritten.answer_arity)
        ]
        self._active = True
        try:
            read_mark = 0
            for evaluator in self.evaluators:
                for _count in evaluator.iterations():
                    frontier = answer_rel.mark()
                    if frontier > read_mark:
                        yield from self._answer_cursor(
                            call_args, since=read_mark, until=frontier
                        )
                        read_mark = frontier
            yield from self._answer_cursor(call_args, since=read_mark)
        finally:
            self._finish()

    def _finish(self) -> None:
        """The call's evaluation is over: no handed-on rows outlive it."""
        self._active = False
        self._push_rows.clear()

    def _answer_cursor(
        self,
        call_args: Sequence[Arg],
        since: int = 0,
        until: Optional[int] = None,
    ) -> TupleIterator:
        rewritten = self.compiled.rewritten
        answer_rel = self.scope.local[
            (rewritten.answer_pred, rewritten.answer_arity)
        ]
        candidates = answer_rel.scan(
            None if rewritten.answer_positions is not None else list(call_args),
            None,
            since=since,
            until=until,
        )
        if rewritten.answer_positions is None:
            return candidates
        # context factoring: splice the bound constants back around the
        # answer predicate's free-position values
        positions = rewritten.answer_positions
        make = Tuple.ground

        def reassemble() -> Iterator[Tuple]:
            full: List[Arg] = list(call_args)
            for partial in candidates:
                for value, position in zip(partial.args, positions):
                    full[position] = value
                # the rest are the form's bound positions, which the call
                # binds to ground terms: no second groundness walk
                yield make(full) if partial.is_ground() else Tuple(full)

        cursor = GeneratorTupleIterator(reassemble())
        cursor.owned = True  # each answer is built here, for this call alone
        return cursor
