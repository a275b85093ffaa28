"""The query optimizer (paper Section 4).

*"The query optimizer takes a program module and a query form as input, and
generates a rewritten program that is optimized for the specified query
forms.  In addition to doing rewriting transformations, the optimizer adds
several control annotations."* (Section 2.)

:class:`Optimizer.compile` performs, per module and query form:

1. choice of rewriting technique (Section 4.1) — the first candidate whose
   structural precondition holds: nothing for all-free query forms
   (bindings are only a final selection), then context factoring, then
   Supplementary Magic; a module annotation (Magic Templates / GoalId
   indexing / ...) overrides the candidates, and the trail of rejections
   stays on the compiled form;
2. existential (projection-pushing) rewriting, on by default alongside a
   magic-family rewriting (Section 4.1);
3. run-time decisions (Section 4.2): fixpoint strategy (BSN/PSN), index
   selection for the rewritten rules, subsumption/multiset policy, lazy vs
   eager answer return, intelligent backtracking;
4. SCC decomposition and semi-naive rule generation (Sections 5.1, 5.3);
5. which consumers — the push backend, view maintenance, save-module
   resumption — may run on the result (:mod:`.capabilities`).

The result, a :class:`CompiledForm`, is the "internal representation used by
the query evaluation system"; :meth:`CompiledForm.listing` renders the
rewritten program as text, the paper's debugging aid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple as PyTuple

from ..errors import RewriteError, StratificationError
from ..language.ast import (
    AggregateSelection,
    IndexAnnotation,
    ModuleDecl,
    Rule,
)
from ..relations import ArgumentIndexSpec, IndexSpec, PatternIndexSpec
from ..rewriting.adorn import adorn_program
from ..rewriting.existential import existential_rewrite
from ..rewriting.factoring import FactoringNotApplicable, factoring_rewrite
from ..rewriting.graph import (
    build_dependency_graph,
    check_stratified,
    condensation_order,
    recursive_predicates,
)
from ..rewriting.magic import RewrittenProgram, magic_rewrite, no_rewriting
from ..rewriting.supmagic import supmagic_rewrite
from ..eval.fixpoint import SCCPlan
from ..terms import Var
from .capabilities import Capabilities, form_capabilities

PredKey = PyTuple[str, int]


#: the technique annotations that replace the candidates after ``none``
#: with their own, in the order they win over each other
_TECHNIQUE_FLAGS = ("magic", "supplementary_magic_goalid", "supplementary_magic")


class _PureMarker:
    """Stand-in builtin descriptor when only an is_builtin predicate is
    available (assumes purity — the manager passes the real registry)."""

    pure = True


@dataclass
class CompiledForm:
    """A module compiled for one query form — Section 5.1's internal module
    structure: SCC list, semi-naive rules, and control decisions."""

    module_name: str
    pred: str
    adornment: str
    rewritten: RewrittenProgram
    #: the rewriting candidates tried, in order: (candidate, "chosen" or the
    #: one-line reason it was rejected); the last entry is the chosen one
    choice: List[PyTuple[str, str]]
    scc_plans: List[SCCPlan]
    strategy: str  # 'bsn' | 'psn' | 'naive'
    lazy: bool
    use_backjumping: bool
    save_module: bool
    ordered_search: bool
    #: generated-code backend ("push"), or None for the interpreter
    #: (Section 2's compiled mode; truthy iff compiled)
    compiled: Optional[str]
    #: original-name aggregate selections mapped onto rewritten predicates
    constraints: List[PyTuple[PredKey, AggregateSelection]]
    #: index specs to create on local relations: (pred key) -> specs
    index_specs: Dict[PredKey, List[IndexSpec]] = field(default_factory=dict)
    #: index specs for base (non-local) relations
    base_index_specs: Dict[PredKey, List[IndexSpec]] = field(default_factory=dict)
    #: predicates with multiset (duplicate-keeping) semantics
    multiset_preds: Set[str] = field(default_factory=set)
    #: what the rules read from outside the instance: base relations and
    #: other modules' exports, each once, in rule order
    reads: List[PredKey] = field(default_factory=list)
    #: which consumers may run on this form (optimizer/capabilities.py)
    capabilities: Capabilities = field(default_factory=Capabilities)

    def choice_lines(self) -> List[str]:
        """One line per rewriting candidate tried: chosen, or why not."""
        return [
            f"{candidate}: {why if why == 'chosen' else 'rejected — ' + why}"
            for candidate, why in self.choice
        ]

    def listing(self) -> str:
        """The rewritten program as text (Section 2: 'stored as a text file —
        useful as a debugging aid')."""
        lines = [
            f"% module {self.module_name}, query form "
            f"{self.pred}^{self.adornment}",
            f"% technique: {self.rewritten.technique}, strategy: {self.strategy}"
            f"{', lazy' if self.lazy else ''}",
        ]
        lines += [f"%   {line}" for line in self.choice_lines()]
        for plan in self.scc_plans:
            preds = ", ".join(f"{n}/{a}" for n, a in sorted(plan.preds))
            lines.append(f"% scc: {preds}")
            for rule in plan.rules:
                lines.append(str(rule))
        return "\n".join(lines)


class Optimizer:
    """Compiles module declarations into :class:`CompiledForm` plans."""

    def __init__(
        self,
        is_builtin: Callable[[str, int], bool],
        lookup_builtin: Optional[Callable[[str, int], object]] = None,
        default_compiled: Optional[str] = None,
    ) -> None:
        self.is_builtin = is_builtin
        self._lookup_builtin = lookup_builtin or (
            lambda name, arity: _PureMarker() if is_builtin(name, arity) else None
        )
        #: session-wide compiled backend; an @compiled module flag wins
        self.default_compiled = default_compiled

    # -- public entry ---------------------------------------------------------

    def compile(self, module: ModuleDecl, pred: str, adornment: str) -> CompiledForm:
        """Compile ``module`` for one query form.

        If a selection-propagating rewriting breaks stratification (magic
        predicates typically close cycles through aggregation/negation),
        the optimizer falls back to Ordered Search over the original rules
        — the paper's strategy for left-to-right modularly stratified
        programs (Section 5.4.1).
        """
        ordered_search = module.has_flag("ordered_search")
        multiset_preds = {
            flag.argument
            for flag in module.flags
            if flag.name == "multiset" and flag.argument
        }
        if module.has_flag("multiset") and module.flag("multiset").argument is None:
            multiset_preds.update(rule.head.pred for rule in module.rules)

        rewritten, choice = self._rewrite(module, pred, adornment)
        graph = build_dependency_graph(rewritten.rules, self.is_builtin)
        if not ordered_search:
            try:
                check_stratified(graph)
            except StratificationError:
                ordered_search = True
                choice[-1] = (
                    choice[-1][0],
                    "the rewritten program is not stratified (ordered search "
                    "over the original rules instead)",
                )
                choice.append(("none", "chosen"))
                rewritten = no_rewriting(module.rules, pred, len(adornment))
                graph = build_dependency_graph(rewritten.rules, self.is_builtin)
        if module.has_flag("join_ordering"):
            from .joinorder import order_program

            rewritten.rules = order_program(
                rewritten.rules, self._lookup_builtin
            )

        strategy = "psn" if module.has_flag("psn") else "bsn"
        save_module = module.has_flag("save_module")

        constraints = self._map_constraints(module, rewritten)
        lazy = not (
            save_module
            or constraints
            or module.has_flag("eager_eval")
            or ordered_search
        )
        if module.has_flag("lazy_eval"):
            lazy = True

        scc_plans = self._plan_sccs(
            graph, rewritten.rules, strategy, resumable=save_module
        )

        compiled = CompiledForm(
            module_name=module.name,
            pred=pred,
            adornment=adornment,
            rewritten=rewritten,
            choice=choice,
            scc_plans=scc_plans,
            strategy=strategy,
            lazy=lazy,
            use_backjumping=not module.has_flag("no_backjumping"),
            save_module=save_module,
            ordered_search=ordered_search,
            compiled=self._compiled_backend(module),
            constraints=constraints,
            multiset_preds=multiset_preds,
        )
        local = {rule.head.key for rule in rewritten.rules}
        if rewritten.magic_pred is not None:
            local.add((rewritten.magic_pred, len(rewritten.bound_positions)))
        compiled.reads = list(dict.fromkeys(
            literal.key
            for rule in rewritten.rules
            for literal in rule.body
            if literal.key not in local and not self.is_builtin(*literal.key)
        ))
        compiled.capabilities = form_capabilities(
            module, compiled, self._lookup_builtin
        )
        if not module.has_flag("no_index_selection"):
            self._select_indexes(compiled)
        self._map_index_annotations(module, compiled)
        return compiled

    def _compiled_backend(self, module: ModuleDecl) -> Optional[str]:
        """Which code generator (if any) this module evaluates through:
        ``@compiled.`` / ``@compiled(push).`` on the module, else the
        session-wide default."""
        flag = module.flag("compiled")
        if flag is not None:
            backend = flag.argument or "push"
        else:
            backend = self.default_compiled
        if backend not in (None, "push"):
            raise RewriteError(
                f"unknown compiled backend {backend!r} (expected 'push')"
            )
        return backend

    # -- technique choice --------------------------------------------------------

    def _rewrite(
        self, module: ModuleDecl, pred: str, adornment: str
    ) -> PyTuple[RewrittenProgram, List[PyTuple[str, str]]]:
        """Take the first candidate whose structural precondition holds: no
        rewriting for all-free forms, then context factoring, then
        supplementary magic (Section 4.1: "each technique is superior to
        the rest for some programs"); a technique annotation puts its own
        candidate after ``none`` instead.  Returns the rewritten program
        and one (candidate, "chosen" | rejection reason) pair per candidate
        tried — the last candidate always holds."""
        flag = next((f for f in _TECHNIQUE_FLAGS if module.has_flag(f)), None)
        choice: List[PyTuple[str, str]] = []
        for candidate in ["none"] + (
            [flag] if flag else ["factoring", "supplementary_magic"]
        ):
            reason = "chosen"
            if candidate == "none":
                # Section 4.1: all-free forms ignore bindings except for a
                # final selection; Ordered Search propagates selections
                # through its subgoal patterns, not magic predicates
                # (Section 5.4.1)
                if "b" in adornment and not (
                    module.has_flag("ordered_search")
                    or module.has_flag("no_rewriting")
                ):
                    reason = f"form {adornment} binds arguments"
                else:
                    rewritten = no_rewriting(module.rules, pred, len(adornment))
            elif candidate == "factoring":
                try:
                    rewritten = factoring_rewrite(module, pred, adornment)
                except FactoringNotApplicable as rejection:
                    reason = str(rejection)
            else:
                rules = module.rules
                # existential rewriting (projection pushing), Section 4.1:
                # applied by default with a magic-family rewriting; skipped
                # under multiset semantics (projection changes duplicate
                # counts)
                if not (
                    module.has_flag("no_existential_rewriting")
                    or module.has_flag("multiset")
                ):
                    rules = existential_rewrite(
                        rules,
                        pred,
                        len(adornment),
                        self.is_builtin,
                        protected={
                            selection.pred
                            for selection in module.aggregate_selections
                        },
                    )
                adorned = adorn_program(
                    rules,
                    pred,
                    len(adornment),
                    adornment,
                    self.is_builtin,
                    module.aggregate_selections,
                )
                if candidate == "magic":
                    rewritten = magic_rewrite(adorned, self.is_builtin)
                else:
                    rewritten = supmagic_rewrite(
                        adorned,
                        self.is_builtin,
                        use_goal_ids=candidate == "supplementary_magic_goalid",
                    )
            choice.append((candidate, reason))
            if reason == "chosen":
                return rewritten, choice

    # -- SCC planning ---------------------------------------------------------------

    def _plan_sccs(
        self,
        graph,
        rules: Sequence[Rule],
        strategy: str,
        resumable: bool = False,
    ) -> List[SCCPlan]:
        """One plan per SCC, callees first; a save-module form's plans
        carry resumption versions."""
        plans: List[SCCPlan] = []
        for component in condensation_order(graph):
            component_rules = [
                rule for rule in rules if rule.head.key in component
            ]
            if not component_rules:
                continue
            recursive = recursive_predicates(graph, component)
            plans.append(
                SCCPlan.build(
                    component,
                    recursive,
                    component_rules,
                    self.is_builtin,
                    strategy=strategy,
                    resumable=resumable,
                )
            )
        return plans

    # -- aggregate selections ----------------------------------------------------------

    def _map_constraints(
        self, module: ModuleDecl, rewritten: RewrittenProgram
    ) -> List[PyTuple[PredKey, AggregateSelection]]:
        """Attach each @aggregate_selection to every rewritten variant of its
        predicate (the adorned relations hold the actual facts)."""
        out: List[PyTuple[PredKey, AggregateSelection]] = []
        heads = {rule.head.pred for rule in rewritten.rules}
        for selection in module.aggregate_selections:
            for head in heads:
                original = rewritten.origin.get(head, (head, ""))[0]
                if original == selection.pred:
                    out.append(((head, selection.arity), selection))
        return out

    # -- index selection (Section 4.2 & 5.3) ----------------------------------------------

    def _select_indexes(self, compiled: CompiledForm) -> None:
        """Create an argument index for every bound-prefix probe the
        semi-naive rules will make (Section 5.3: 'the optimizer analyzes the
        semi-naive rewritten rules and generates annotations to create any
        indexes that may be useful')."""
        local_preds: Set[PredKey] = set()
        for plan in compiled.scc_plans:
            local_preds.update(plan.preds)

        def note(pred_key: PredKey, positions: PyTuple[int, ...]) -> None:
            if not positions:
                return
            spec = ArgumentIndexSpec(pred_key[1], positions)
            table = (
                compiled.index_specs
                if pred_key in local_preds
                else compiled.base_index_specs
            )
            existing = table.setdefault(pred_key, [])
            if not any(
                isinstance(other, ArgumentIndexSpec) and other == spec
                for other in existing
            ):
                existing.append(spec)

        for plan in compiled.scc_plans:
            for rule in plan.rules:
                bound: Set[int] = set()
                for literal in rule.body:
                    if self.is_builtin(literal.pred, literal.arity):
                        for arg in literal.args:
                            bound.update(v.vid for v in arg.variables())
                        continue
                    positions = tuple(
                        position
                        for position, arg in enumerate(literal.args)
                        if arg.is_ground()
                        or all(v.vid in bound for v in arg.variables())
                    )
                    if positions and len(positions) <= literal.arity:
                        note(literal.key, positions)
                    if not literal.negated:
                        for arg in literal.args:
                            bound.update(v.vid for v in arg.variables())

    def _map_index_annotations(
        self, module: ModuleDecl, compiled: CompiledForm
    ) -> None:
        """Translate @make_index annotations into index specs, applied to the
        original predicate name (base relations) and all adorned variants."""
        heads = {rule.head.pred for rule in compiled.rewritten.rules}
        for annotation in module.index_annotations:
            spec = index_spec_from_annotation(annotation)
            key = (annotation.pred, annotation.arity)
            compiled.base_index_specs.setdefault(key, []).append(spec)
            for head in heads:
                original = compiled.rewritten.origin.get(head, (head, ""))[0]
                if original == annotation.pred:
                    compiled.index_specs.setdefault(
                        (head, annotation.arity), []
                    ).append(spec)


def index_spec_from_annotation(annotation: IndexAnnotation) -> IndexSpec:
    """An @make_index annotation becomes an argument-form index when its
    pattern is a plain variable tuple and the keys are top-level argument
    variables; anything structured becomes a pattern-form index
    (Section 5.5.1)."""
    plain = all(isinstance(arg, Var) for arg in annotation.pattern)
    if plain:
        positions = []
        by_vid = {
            arg.vid: position
            for position, arg in enumerate(annotation.pattern)
            if isinstance(arg, Var)
        }
        simple = True
        for key in annotation.key_terms:
            if isinstance(key, Var) and key.vid in by_vid:
                positions.append(by_vid[key.vid])
            else:
                simple = False
                break
        if simple:
            return ArgumentIndexSpec(annotation.arity, positions)
    key_vars = []
    for key in annotation.key_terms:
        if not isinstance(key, Var):
            raise RewriteError(
                f"@make_index keys must be variables, got {key}"
            )
        key_vars.append(key)
    return PatternIndexSpec(annotation.pattern, key_vars)
