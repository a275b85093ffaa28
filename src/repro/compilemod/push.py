"""The push-based whole-SCC compiler (Brass & Stephan's "push method").

Specializing one semi-naive rule at a time still pays the full fixpoint
machinery between rules: delta windows, relation scans, per-rule dispatch
(the rule-at-a-time backend this repository once had measured 0.88x the
interpreter; EXPERIMENTS.md E12).  The push method compiles the *entire
SCC* into one Python function in which every derived tuple is pushed
directly into the rule bodies that consume its predicate:

* ground constants are interned to dense ints (:class:`~repro.terms.hashcons.InternTable`)
  before the run, so the hot loop compares and hashes machine ints — tuple-id
  arithmetic instead of object unification;
* semi-naive evaluation falls out of *push order*: a LIFO worklist holds
  derived tuples, and each popped tuple joins against the full extents
  accumulated so far.  A tuple is inserted into its predicate's extent
  (and indexes) *before* it is pushed, so for any pair of tuples the one
  popped later sees the other — every join combination is produced at
  least once, and a ``seen`` set of interned tuples removes repeats.  No
  delta relations are materialized and no iteration barrier exists;
* base (non-SCC) relations are materialized once into pre-interned column
  tuples ("batches") with hash indexes built per bound-position pattern —
  batch-at-a-time scans instead of cursor calls per probe.

The compilable class is deliberately restricted, like any realistic
codegen: flat argument patterns over primitive constants, positive
non-builtin literals, comparisons and arithmetic ``=`` after the first
scan, no aggregation, ground facts.  Out-of-class rules
fall back *per rule* to the interpreter: non-recursive ones run before the
push phase (their heads become push seeds), recursive ones run in the
ordinary delta loop afterwards, with the pushed rules suppressed for the
first iteration (everything push derived is "new", so the triangular
versions with ``prev = 0`` cover the cross product exactly once).  Every
fallback is recorded with its reason in :class:`CompileStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple as PyTuple

from ..errors import EvaluationError
from ..eval.context import LocalScope
from ..eval.fixpoint import SCCEvaluator, SCCPlan
from ..relations import Tuple
from ..rewriting.seminaive import recursive_body_positions
from ..terms import Arg, Atom, Double, Functor, Int, Str, Var
from ..terms.hashcons import InternTable

PredKey = PyTuple[str, int]

#: comparison operators the code generator can inline
_COMPARISONS = {"<": "<", ">": ">", "<=": "<=", ">=": ">=", "==": "==", "!=": "!="}
#: arithmetic functors the code generator can inline
_ARITH = {"+": "+", "-": "-", "*": "*", "/": "/"}

_PRIMITIVES = (Int, Double, Str, Atom)

#: flush the pending-fact count into EvalStats (and check resource limits)
#: every this many new facts / this many derivation attempts
_TICK_MASK = 1023
_ATTEMPT_MASK = 8191


class NotCompilable(Exception):
    """The rule is outside the compiled class; fall back to interpretation."""


@dataclass
class CompileStats:
    """Consult-time accounting for the compiled-vs-interpreted comparison.

    ``fallbacks`` maps a human-readable reason (the :class:`NotCompilable`
    message) to how many rules fell back to the interpreter for it, so
    silent per-rule fallback is visible through ``EXPLAIN``, the profiler's
    ``compile.fallbacks`` counter, and ``instance.compiler.stats``.
    """

    rules_compiled: int = 0
    rules_interpreted: int = 0
    codegen_seconds: float = 0.0
    generated_lines: int = 0
    #: fallback reason -> number of rules interpreted for that reason
    fallbacks: Dict[str, int] = field(default_factory=dict)

    def record_fallback(self, reason: str, count: int = 1) -> None:
        self.rules_interpreted += count
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + count


def note_fallback(obs, rule, reason: str, count: int = 1) -> None:
    """Surface an interpreter fallback of ``count`` rules through the
    observability plane: a trace event plus the ``compile.fallbacks``
    counter (labelled by reason) when a metrics registry is installed."""
    if obs is None:
        return
    obs.event(
        "compile.fallback", cat="compile", backend="push", rule=str(rule),
        reason=reason,
    )
    registry = obs.registry
    if registry is not None:
        registry.counter(
            "compile.fallbacks",
            "rules interpreted under a compiled backend, by reason",
            ("reason",),
        ).inc(count, reason)


def _nonground_error(tup) -> None:
    raise EvaluationError(
        f"compiled mode requires ground facts; found {tup} "
        f"(use the interpreted evaluator for non-ground data)"
    )


@dataclass
class PushProgram:
    """One SCC compiled to a single push-evaluation function.

    ``fn(seeds, batches, consts, vals, intern_num, tick)`` returns
    ``(per_pred, attempts)`` where ``per_pred[i]`` is ``(all_tuples,
    seed_count)`` for ``out_preds[i]`` — interned tuples beyond the seed
    prefix are the new facts to flush back into relations.  ``fn`` is None
    when no rule of the SCC was compilable (the evaluator then runs fully
    interpreted); ``fallbacks`` always carries the per-rule reasons.
    """

    source: str
    fn: Optional[Callable]
    #: every predicate of the SCC, in the order the function reports them
    out_preds: List[PredKey]
    #: non-SCC body predicates, in batch order
    static_preds: List[PredKey]
    #: rule constants to intern at run start (``consts[k]`` in generated code)
    const_args: List[Arg]
    #: indexes into ``plan.rules`` of the rules fused into the program
    pushed_sources: FrozenSet[int]
    rules_compiled: int = 0
    #: out-of-class rules with their :class:`NotCompilable` reasons
    fallbacks: List[PyTuple[object, str]] = field(default_factory=list)
    codegen_seconds: float = 0.0


class PushCompiler:
    """Compiles :class:`SCCPlan`\\ s to :class:`PushProgram`\\ s, caching the
    program on the plan (plans are cached per query form by the module
    manager, so codegen happens once, not once per call)."""

    def __init__(self) -> None:
        self.stats = CompileStats()

    def admits(self, compiled_form, obs=None) -> bool:
        """Whether the form's ``push`` verdict (optimizer/capabilities.py)
        lets this backend run it.  If not, the whole module runs
        interpreted, every rule counted as a fallback for that reason."""
        reason = compiled_form.capabilities.push
        if reason is not None:
            total = max(sum(len(plan.rules) for plan in compiled_form.scc_plans), 1)
            self.stats.record_fallback(reason, total)
            note_fallback(obs, f"module {compiled_form.module_name}", reason, total)
        return reason is None

    def program_for(
        self, plan: SCCPlan, is_builtin, obs=None
    ) -> Optional[PushProgram]:
        program = getattr(plan, "push_program", None)
        fresh = program is None
        if fresh:
            started = time.perf_counter()
            program = _PushCodegen(plan, is_builtin).build()
            program.codegen_seconds = time.perf_counter() - started
            plan.push_program = program
        self.stats.rules_compiled += program.rules_compiled
        for rule, reason in program.fallbacks:
            self.stats.record_fallback(reason)
            note_fallback(obs, rule, reason)
        if fresh:
            self.stats.codegen_seconds += program.codegen_seconds
            self.stats.generated_lines += program.source.count("\n")
        return program if program.fn is not None else None


class _Chunk:
    """Relative-indent line buffer for one rule body; insert sites are
    placeholders resolved once the whole SCC's index set is known."""

    def __init__(self) -> None:
        self.lines: List[PyTuple[int, object]] = []
        self.indent = 0

    def emit(self, text: str) -> None:
        self.lines.append((self.indent, text))

    def insert(self, out_index: int, head_exprs: Sequence[str]) -> None:
        self.lines.append((self.indent, ("insert", out_index, tuple(head_exprs))))


class _PushCodegen:
    """Generates the push function for one SCC."""

    def __init__(self, plan: SCCPlan, is_builtin) -> None:
        self.plan = plan
        self.is_builtin = is_builtin
        self.out_preds: List[PredKey] = sorted(plan.preds)
        self.out_index = {key: i for i, key in enumerate(self.out_preds)}
        #: recursive predicates get worklist tags
        self.dyn_tags = {
            key: tag for tag, key in enumerate(sorted(plan.recursive))
        }
        self.static_preds: List[PredKey] = []
        self._static_of: Dict[PredKey, int] = {}
        #: (batch index, bound positions) -> generated index name
        self.static_indexes: Dict[PyTuple[int, tuple], str] = {}
        #: (out pred index, bound positions) -> generated index name
        self.dyn_indexes: Dict[PyTuple[int, tuple], str] = {}
        self.const_args: List[Arg] = []
        self._const_ids: Dict[object, int] = {}
        self._counter = 0

    # -- shared helpers -------------------------------------------------------

    def _const(self, arg: Arg) -> str:
        key = arg.ground_key()
        ident = self._const_ids.get(key)
        if ident is None:
            ident = len(self.const_args)
            self._const_ids[key] = ident
            self.const_args.append(arg)
        return f"consts[{ident}]"

    def _static_batch(self, key: PredKey) -> int:
        index = self._static_of.get(key)
        if index is None:
            index = len(self.static_preds)
            self._static_of[key] = index
            self.static_preds.append(key)
        return index

    def _static_index(self, batch: int, positions: tuple) -> str:
        name = self.static_indexes.get((batch, positions))
        if name is None:
            name = f"si{len(self.static_indexes)}"
            self.static_indexes[(batch, positions)] = name
        return name

    def _dyn_index(self, out_i: int, positions: tuple) -> str:
        name = self.dyn_indexes.get((out_i, positions))
        if name is None:
            name = f"di{len(self.dyn_indexes)}"
            self.dyn_indexes[(out_i, positions)] = name
        return name

    # -- classification ---------------------------------------------------------

    def _classify(self, rule) -> None:
        if rule.head_aggregates:
            raise NotCompilable("aggregation")
        bound: Set[int] = set()
        scans = 0
        for literal in rule.body:
            if literal.negated:
                raise NotCompilable("negation")
            if literal.pred in _COMPARISONS and literal.arity == 2:
                if not scans:
                    raise NotCompilable("guard before the first scan literal")
                self._check_expr(literal.args[0], bound)
                self._check_expr(literal.args[1], bound)
                continue
            if literal.pred == "=" and literal.arity == 2:
                if not scans:
                    raise NotCompilable(
                        "assignment before the first scan literal"
                    )
                target, expr = literal.args
                if not isinstance(target, Var):
                    raise NotCompilable("assignment target must be a variable")
                self._check_expr(expr, bound)
                bound.add(target.vid)
                continue
            if self.is_builtin(literal.pred, literal.arity):
                raise NotCompilable(f"builtin {literal.pred}/{literal.arity}")
            for arg in literal.args:
                if isinstance(arg, Var):
                    bound.add(arg.vid)
                elif not isinstance(arg, _PRIMITIVES):
                    raise NotCompilable(f"structured argument {arg}")
            scans += 1
        for arg in rule.head.args:
            if isinstance(arg, Var):
                if arg.vid not in bound:
                    raise NotCompilable(
                        f"head variable {arg} not bound by the body"
                    )
            elif not isinstance(arg, _PRIMITIVES):
                raise NotCompilable(f"structured head argument {arg}")

    def _check_expr(self, arg: Arg, bound: Set[int]) -> None:
        if isinstance(arg, Var):
            if arg.vid not in bound:
                raise NotCompilable(f"unbound variable {arg} in expression")
            return
        if isinstance(arg, _PRIMITIVES):
            return
        if isinstance(arg, Functor) and arg.name in _ARITH and len(arg.args) == 2:
            self._check_expr(arg.args[0], bound)
            self._check_expr(arg.args[1], bound)
            return
        raise NotCompilable(f"expression {arg}")

    # -- per-rule emission -----------------------------------------------------

    def _expr(self, arg: Arg, names: Dict[int, str]) -> str:
        """A Python expression over *raw values*: variables go through the
        intern table's ``vals`` list, constants are inlined literals."""
        if isinstance(arg, Var):
            name = names.get(arg.vid)
            if name is None:
                raise NotCompilable(f"unbound variable {arg} in expression")
            return f"vals[{name}]"
        if isinstance(arg, _PRIMITIVES):
            return repr(arg.value)
        if isinstance(arg, Functor) and arg.name in _ARITH and len(arg.args) == 2:
            left = self._expr(arg.args[0], names)
            right = self._expr(arg.args[1], names)
            return f"(({left}) {_ARITH[arg.name]} ({right}))"
        raise NotCompilable(f"expression {arg}")

    def _bind_from_tuple(
        self, chunk: _Chunk, tup: str, args, names: Dict[int, str],
        suffix: int, skip=frozenset(),
    ) -> None:
        """Bind fresh variables from (and guard known positions of) an
        already-available interned tuple.  Guards nest ``if`` blocks rather
        than ``continue`` so chunks compose at any loop depth."""
        for position, arg in enumerate(args):
            if position in skip:
                continue
            access = f"{tup}[{position}]"
            if isinstance(arg, Var):
                existing = names.get(arg.vid)
                if existing is None:
                    fresh = f"v{arg.vid}c{suffix}"
                    names[arg.vid] = fresh
                    chunk.emit(f"{fresh} = {access}")
                else:
                    chunk.emit(f"if {existing} == {access}:")
                    chunk.indent += 1
            else:
                chunk.emit(f"if {access} == {self._const(arg)}:")
                chunk.indent += 1

    def _emit_scan(
        self, chunk: _Chunk, literal, names: Dict[int, str], suffix: int
    ) -> None:
        bound_positions: List[int] = []
        key_exprs: List[str] = []
        for position, arg in enumerate(literal.args):
            if isinstance(arg, Var):
                name = names.get(arg.vid)
                if name is not None:
                    bound_positions.append(position)
                    key_exprs.append(name)
            else:
                bound_positions.append(position)
                key_exprs.append(self._const(arg))
        self._counter += 1
        tup = f"_t{self._counter}"
        key = literal.key
        if key in self.out_index:
            out_i = self.out_index[key]
            if bound_positions:
                index = self._dyn_index(out_i, tuple(bound_positions))
                chunk.emit(
                    f"for {tup} in {index}.get(({', '.join(key_exprs)},), ()):"
                )
            else:
                chunk.emit(f"for {tup} in all{out_i}:")
        else:
            batch = self._static_batch(key)
            if bound_positions:
                index = self._static_index(batch, tuple(bound_positions))
                chunk.emit(
                    f"for {tup} in {index}.get(({', '.join(key_exprs)},), ()):"
                )
            else:
                chunk.emit(f"for {tup} in _b{batch}:")
        chunk.indent += 1
        self._bind_from_tuple(
            chunk, tup, literal.args, names, suffix, skip=set(bound_positions)
        )

    def _emit_rule(self, rule, pushed_position: Optional[int]) -> _Chunk:
        """One chunk: either a batch-loop once rule (``pushed_position`` is
        None) or the handler for one recursive body occurrence, joining the
        pushed tuple ``_t`` against everything else."""
        chunk = _Chunk()
        self._counter += 1
        suffix = self._counter
        names: Dict[int, str] = {}
        if pushed_position is not None:
            self._bind_from_tuple(
                chunk, "_t", rule.body[pushed_position].args, names, suffix
            )
        for position, literal in enumerate(rule.body):
            if position == pushed_position:
                continue
            if literal.pred in _COMPARISONS and literal.arity == 2:
                left = self._expr(literal.args[0], names)
                right = self._expr(literal.args[1], names)
                chunk.emit(
                    f"if ({left}) {_COMPARISONS[literal.pred]} ({right}):"
                )
                chunk.indent += 1
                continue
            if literal.pred == "=" and literal.arity == 2:
                target, expr = literal.args
                value = self._expr(expr, names)
                existing = names.get(target.vid)
                if existing is not None:
                    chunk.emit(f"if vals[{existing}] == ({value}):")
                    chunk.indent += 1
                    continue
                self._counter += 1
                tmp = f"_n{self._counter}"
                fresh = f"v{target.vid}c{suffix}"
                names[target.vid] = fresh
                chunk.emit(f"{tmp} = {value}")
                chunk.emit(f"{fresh} = intern_num({tmp})")
                continue
            self._emit_scan(chunk, literal, names, suffix)
        head_exprs = [
            names[arg.vid] if isinstance(arg, Var) else self._const(arg)
            for arg in rule.head.args
        ]
        chunk.insert(self.out_index[rule.head.key], head_exprs)
        return chunk

    # -- whole-SCC assembly ----------------------------------------------------

    def build(self) -> PushProgram:
        pushed: List[int] = []
        fallbacks: List[PyTuple[object, str]] = []
        once_chunks: List[_Chunk] = []
        handler_chunks: Dict[int, List[_Chunk]] = {}
        for index, rule in enumerate(self.plan.rules):
            try:
                self._classify(rule)
                positions = recursive_body_positions(
                    rule, self.plan.recursive, self.is_builtin
                )
                if not positions:
                    once_chunks.append(self._emit_rule(rule, None))
                else:
                    for position in positions:
                        tag = self.dyn_tags[rule.body[position].key]
                        handler_chunks.setdefault(tag, []).append(
                            self._emit_rule(rule, position)
                        )
            except NotCompilable as exc:
                fallbacks.append((rule, str(exc) or "not compilable"))
                continue
            pushed.append(index)

        if not pushed:
            return PushProgram(
                source="",
                fn=None,
                out_preds=self.out_preds,
                static_preds=[],
                const_args=[],
                pushed_sources=frozenset(),
                rules_compiled=0,
                fallbacks=fallbacks,
            )

        lines: List[str] = ["def _push(seeds, batches, consts, vals, intern_num, tick):"]

        def w(indent: int, text: str) -> None:
            lines.append("    " * (indent + 1) + text)

        w(0, "_att = 0")
        w(0, "_new = 0")
        for i in range(len(self.out_preds)):
            w(0, f"seen{i} = set()")
            w(0, f"all{i} = []")
        for batch in range(len(self.static_preds)):
            w(0, f"_b{batch} = batches[{batch}]")
        for (batch, positions), name in self.static_indexes.items():
            w(0, f"{name} = {{}}")
            w(0, f"for _x in _b{batch}:")
            key = ", ".join(f"_x[{p}]" for p in positions)
            w(1, f"{name}.setdefault(({key},), []).append(_x)")
        for name in self.dyn_indexes.values():
            w(0, f"{name} = {{}}")
        w(0, "stack = []")
        for i, key in enumerate(self.out_preds):
            w(0, f"for _x in seeds[{i}]:")
            w(1, f"if _x not in seen{i}:")
            w(2, f"seen{i}.add(_x)")
            w(2, f"all{i}.append(_x)")
            for update in self._dyn_updates(i, "_x"):
                w(2, update)
            if key in self.dyn_tags:
                w(2, f"stack.append(({self.dyn_tags[key]}, _x))")
            w(0, f"_s{i} = len(all{i})")
        for chunk in once_chunks:
            self._splice(w, chunk, base=0)
        if handler_chunks:
            w(0, "while stack:")
            w(1, "_tag, _t = stack.pop()")
            keyword = "if"
            for tag in sorted(handler_chunks):
                w(1, f"{keyword} _tag == {tag}:")
                keyword = "elif"
                for chunk in handler_chunks[tag]:
                    self._splice(w, chunk, base=2)
        w(0, f"tick(_new & {_TICK_MASK})")
        per_pred = ", ".join(
            f"(all{i}, _s{i})" for i in range(len(self.out_preds))
        )
        trailing = "," if len(self.out_preds) == 1 else ""
        w(0, f"return ({per_pred}{trailing}), _att")

        source = "\n".join(lines) + "\n"
        namespace: Dict[str, object] = {}
        exec(compile(source, "<push scc>", "exec"), namespace)
        return PushProgram(
            source=source,
            fn=namespace["_push"],
            out_preds=self.out_preds,
            static_preds=list(self.static_preds),
            const_args=list(self.const_args),
            pushed_sources=frozenset(pushed),
            rules_compiled=len(pushed),
            fallbacks=fallbacks,
        )

    def _dyn_updates(self, out_i: int, var: str) -> List[str]:
        updates = []
        for (index_pred, positions), name in self.dyn_indexes.items():
            if index_pred == out_i:
                key = ", ".join(f"{var}[{p}]" for p in positions)
                updates.append(
                    f"{name}.setdefault(({key},), []).append({var})"
                )
        return updates

    def _splice(self, w, chunk: _Chunk, base: int) -> None:
        for indent, payload in chunk.lines:
            if isinstance(payload, str):
                w(base + indent, payload)
            else:
                _, out_i, head_exprs = payload
                self._render_insert(w, base + indent, out_i, head_exprs)

    def _render_insert(
        self, w, indent: int, out_i: int, head_exprs: Sequence[str]
    ) -> None:
        head = f"({', '.join(head_exprs)}{',' if head_exprs else ''})"
        w(indent, "_att += 1")
        w(indent, f"if not (_att & {_ATTEMPT_MASK}):")
        w(indent + 1, "tick(0)")
        w(indent, f"_h = {head}")
        w(indent, f"if _h not in seen{out_i}:")
        w(indent + 1, f"seen{out_i}.add(_h)")
        w(indent + 1, f"all{out_i}.append(_h)")
        for update in self._dyn_updates(out_i, "_h"):
            w(indent + 1, update)
        key = self.out_preds[out_i]
        if key in self.dyn_tags:
            w(indent + 1, f"stack.append(({self.dyn_tags[key]}, _h))")
        w(indent + 1, "_new += 1")
        w(indent + 1, f"if not (_new & {_TICK_MASK}):")
        w(indent + 2, f"tick({_TICK_MASK + 1})")


class PushSCCEvaluator(SCCEvaluator):
    """An :class:`SCCEvaluator` whose first fixpoint run is the compiled
    push program; out-of-class rules interleave through the interpreter.

    Sequencing per run: (1) out-of-class once rules run interpreted — their
    heads land in the local relations and become push seeds alongside the
    magic seed; (2) the push function runs to its fixpoint over interned
    tuples, and new facts are flushed back into the relations; (3) if any
    recursive rule was *not* pushed, the ordinary delta loop runs with the
    pushed rules suppressed for the first iteration (``prev = 0`` makes the
    last-delta triangular version cover the full cross product, so the
    interpreted rules see every pushed fact exactly once); from the second
    iteration on, all rules participate over real delta windows, so
    interpreter-derived facts flow back into the pushed rules' logic too.
    """

    def __init__(
        self,
        scope: LocalScope,
        plan: SCCPlan,
        strategy: str = "bsn",
        use_backjumping: bool = True,
        compiler: Optional[PushCompiler] = None,
    ) -> None:
        super().__init__(scope, plan, strategy, use_backjumping)
        self.compiler = compiler if compiler is not None else PushCompiler()
        self._program = self.compiler.program_for(
            plan, scope.ctx.is_builtin, obs=scope.ctx.obs
        )
        self._pushed_sources: FrozenSet[int] = (
            self._program.pushed_sources
            if self._program is not None
            else frozenset()
        )
        self._suppress_pushed = False
        self._unpushed_delta = any(
            rule.source_index not in self._pushed_sources
            for _, group in self._groups
            for rule, _ in group
        )

    # -- interpreter interleaving ---------------------------------------------

    def _apply(self, rule, executor, seed=None) -> None:
        if self._suppress_pushed and rule.source_index in self._pushed_sources:
            return
        super()._apply(rule, executor, seed)

    def iterations(self):
        if self._program is None or self._started:
            # nothing compiled, or a resumption: plain interpreted fixpoint
            yield from super().iterations()
            return
        self._suppress_pushed = True
        try:
            yield self._seed()
            if not self._unpushed_delta:
                # every recursive rule was fused into the push program; its
                # fixpoint is already complete — no verification pass needed
                return
            for new_facts in self._delta_loop():
                # the first interpreted iteration has run; re-enable the
                # pushed rules so later deltas flow through all rules
                self._suppress_pushed = False
                yield new_facts
        finally:
            self._suppress_pushed = False

    def _start(self) -> None:
        # the once rules push did not absorb (``_apply`` skips the rest),
        # then the push run, seeded with their heads
        super()._start()
        if self._program is not None:
            self._run_push()

    # -- the push run ----------------------------------------------------------

    def _run_push(self) -> None:
        program = self._program
        scope = self.scope
        ctx = scope.ctx
        stats = ctx.stats
        limits = ctx.limits
        intern = InternTable()
        intern_arg = intern.intern

        consts = [intern_arg(arg) for arg in program.const_args]
        batches = []
        for key in program.static_preds:
            batch = []
            append = batch.append
            for tup in scope.relation(*key).scan():
                if not tup.is_ground():
                    _nonground_error(tup)
                append(tuple(intern_arg(arg) for arg in tup.args))
            batches.append(batch)
        seeds = []
        for key in program.out_preds:
            seed = []
            append = seed.append
            for tup in scope.local[key].scan():
                if not tup.is_ground():
                    _nonground_error(tup)
                append(tuple(intern_arg(arg) for arg in tup.args))
            seeds.append(seed)

        def tick(count: int) -> None:
            # the push loop bypasses scope.insert_fact; account for derived
            # facts (and consult the resource guard) in batches instead
            stats.facts_inserted += count
            if limits is not None:
                limits.checkpoint(stats)

        obs = ctx.obs
        if obs is None:
            per_pred, attempts = program.fn(
                seeds, batches, consts, intern.vals, intern.intern_num, tick
            )
        else:
            with obs.span("fixpoint.push", cat="eval", scc=self._obs_label()):
                per_pred, attempts = program.fn(
                    seeds, batches, consts, intern.vals, intern.intern_num, tick
                )

        getter = intern.args.__getitem__
        make = Tuple.ground
        new_facts = 0
        for key, (all_tuples, seed_count) in zip(program.out_preds, per_pred):
            fresh = all_tuples[seed_count:]
            if not fresh:
                continue
            # seen was seeded from this relation's contents, so everything
            # beyond the seed prefix is new — the unchecked bulk path applies
            scope.local[key].extend_new(
                make(tuple(map(getter, ids))) for ids in fresh
            )
            new_facts += len(fresh)
        stats.inferences += attempts
        stats.duplicates += attempts - new_facts
        stats.rule_applications += program.rules_compiled
