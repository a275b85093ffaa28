"""The push-based whole-SCC compiler (Brass & Stephan's "push method").

Specializing one semi-naive rule at a time still pays the full fixpoint
machinery between rules: delta windows, relation scans, per-rule dispatch
(the rule-at-a-time backend this repository once had measured 0.88x the
interpreter; EXPERIMENTS.md E12).  The push method compiles the *entire
SCC* into one Python function in which every derived tuple is pushed
directly into the rule bodies that consume its predicate:

* ground constants are interned to dense ints (:class:`~repro.terms.hashcons.InternTable`),
  so the hot loop compares and hashes machine ints — tuple-id arithmetic
  instead of object unification;
* semi-naive evaluation falls out of *push order*: a LIFO worklist holds
  derived tuples, and each popped tuple joins against the full extents
  accumulated so far.  A tuple is inserted into its predicate's extent
  (and indexes) *before* it is pushed, so for any pair of tuples the one
  popped later sees the other — every join combination is produced at
  least once, and a ``seen`` set of interned tuples removes repeats.  No
  delta relations are materialized and no iteration barrier exists;
* base (non-SCC) relations are *resident*: a session's :class:`PushState`
  keeps each one the pushed SCCs read as interned tuples plus every hash
  index the generated code probes, kept current by insertion sequence
  numbers and delete notifications — a query re-interns nothing it read
  before; within one call, an SCC's output relations stay interned for
  the pushed SCCs after it.

The compilable class is deliberately restricted, like any realistic
codegen: flat argument patterns over primitive constants, positive
non-builtin literals, comparisons and ``=`` after the first scan, no
aggregation.  Out-of-class rules fall back *per rule* to the interpreter:
non-recursive ones run before the push phase (their heads become push
seeds), recursive ones run in the ordinary delta loop afterwards, with the
pushed rules suppressed for the first iteration (everything push derived is
"new", so the triangular versions with ``prev = 0`` cover the cross product
exactly once).  A run that meets a non-ground fact, or whose guards and
``=`` could meet an arithmetic expression stored as a value (the
interpreter evaluates one there), falls back as a whole.  Every fallback is recorded with its reason in :class:`CompileStats`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple as PyTuple

from ..builtins.core import is_arith_expr
from ..errors import EvaluationError
from ..eval.context import LocalScope
from ..eval.fixpoint import SCCEvaluator, SCCPlan
from ..relations import Relation, Tuple, Watermark, interned_columns
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
#: every this many new facts / this many derivation attempts, per rule
_TICK_MASK = 1023
_ATTEMPT_MASK = 8191

#: the per-SCC fallback of a lazy form's recursive answer SCC
LAZY_ANSWERS = "lazy answers stream per iteration; @eager_eval. pushes it"
#: the per-run fallback of a program whose guards or ``=`` would read an
#: arithmetic expression stored as a value
ARITH_VALUE = "arithmetic expression stored as a value"


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


def _scc_label(plan: SCCPlan) -> str:
    return "scc " + ",".join(f"{name}/{arity}" for name, arity in sorted(plan.preds))


@dataclass
class PushProgram:
    """One SCC compiled to a single push-evaluation function.

    ``fn(seeds, batches, indexes, consts, vals, intern_num, tick)`` returns
    ``(per_pred, counts)``: ``per_pred[i]`` is ``(all_tuples, seed_count)``
    for ``out_preds[i]`` — interned tuples beyond the seed prefix are the
    new facts to flush back into relations — and ``counts[r]`` is
    ``(attempts, new facts)`` of ``rules[r]``.  ``batches`` holds the
    interned tuples of each of ``static_preds``, ``indexes`` the probed
    hash index of each of ``static_indexes``.  ``fn`` is None when no rule
    of the SCC was compilable (the evaluator then runs fully interpreted);
    ``fallbacks`` always carries the per-rule reasons.
    """

    source: str
    fn: Optional[Callable]
    #: every predicate of the SCC, in the order the function reports them
    out_preds: List[PredKey]
    #: non-SCC body predicates, in batch order
    static_preds: List[PredKey]
    #: (batch, bound positions) of every static index the code probes
    static_indexes: List[PyTuple[int, tuple]]
    #: rule constants to intern at run start (``consts[k]`` in generated code)
    const_args: List[Arg]
    #: indexes into ``plan.rules`` of the rules fused into the program
    pushed_sources: FrozenSet[int]
    #: the fused source rules, in the order of the per-rule counts
    rules: list = field(default_factory=list)
    #: whether a fused rule has a comparison or ``=`` (reads operands)
    evaluates: bool = False
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

    def refuse(self, label: str, reason: str, count: int, obs=None) -> None:
        """Record ``count`` rules run interpreted for ``reason``."""
        count = max(count, 1)
        self.stats.record_fallback(reason, count)
        note_fallback(obs, label, reason, count)

    def admits(self, compiled_form, capabilities, obs=None) -> bool:
        """Whether an instance's ``push`` verdict (optimizer/capabilities.py)
        lets this backend run the form.  If not, the whole module runs
        interpreted, every rule counted as a fallback for that reason."""
        reason = capabilities.push
        if reason is not None:
            total = sum(len(plan.rules) for plan in compiled_form.scc_plans)
            self.refuse(f"module {compiled_form.module_name}", reason, total, obs)
        return reason is None

    def admits_scc(self, compiled_form, plan: SCCPlan, obs=None) -> bool:
        """Whether ``plan`` runs pushed in an admitted form: all but a lazy
        form's recursive answer SCC, whose answers stream at the end of
        every iteration (Section 5.4.3) while push has none to end — that
        one runs interpreted, recorded as a fallback."""
        rewritten = compiled_form.rewritten
        answer = (rewritten.answer_pred, rewritten.answer_arity)
        if compiled_form.lazy and plan.recursive and answer in plan.preds:
            self.refuse(_scc_label(plan), LAZY_ANSWERS, len(plan.rules), obs)
            return False
        return True

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

    def insert(self, rule_index: int, out_index: int, head_exprs: Sequence[str]) -> None:
        self.lines.append(
            (self.indent, ("insert", rule_index, out_index, tuple(head_exprs)))
        )


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
        """A Python expression over *operands* (``InternTable.vals``):
        variables and non-numeric constants read their operand, numbers
        are inlined literals."""
        if isinstance(arg, Var):
            name = names.get(arg.vid)
            if name is None:
                raise NotCompilable(f"unbound variable {arg} in expression")
            return f"vals[{name}]"
        if isinstance(arg, Int) or (
            isinstance(arg, Double) and math.isfinite(arg.value)
        ):
            return repr(arg.value)
        if isinstance(arg, _PRIMITIVES):
            return f"vals[{self._const(arg)}]"
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

    def _emit_assignment(
        self, chunk: _Chunk, literal, names: Dict[int, str], suffix: int
    ) -> None:
        """``X = E`` as the interpreter runs it: a compound arithmetic ``E``
        is evaluated and the number unified with ``X``; a variable or a
        constant is unified as it stands.  Unifying ground values is
        comparing their ids."""
        target, expr = literal.args
        existing = names.get(target.vid)
        if isinstance(expr, Var):
            value = names[expr.vid]
        elif isinstance(expr, _PRIMITIVES):
            value = self._const(expr)
        else:
            value = f"intern_num({self._expr(expr, names)})"
        if existing is not None:
            chunk.emit(f"if {existing} == {value}:")
            chunk.indent += 1
            return
        fresh = f"v{target.vid}c{suffix}"
        names[target.vid] = fresh
        chunk.emit(f"{fresh} = {value}")

    def _emit_rule(
        self, rule, rule_index: int, pushed_position: Optional[int]
    ) -> _Chunk:
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
            elif literal.pred == "=" and literal.arity == 2:
                self._emit_assignment(chunk, literal, names, suffix)
            else:
                self._emit_scan(chunk, literal, names, suffix)
        head_exprs = [
            names[arg.vid] if isinstance(arg, Var) else self._const(arg)
            for arg in rule.head.args
        ]
        chunk.insert(rule_index, self.out_index[rule.head.key], head_exprs)
        return chunk

    # -- whole-SCC assembly ----------------------------------------------------

    def build(self) -> PushProgram:
        pushed: List[int] = []
        fallbacks: List[PyTuple[object, str]] = []
        once_chunks: List[_Chunk] = []
        handler_chunks: Dict[int, List[_Chunk]] = {}
        for index, rule in enumerate(self.plan.rules):
            rule_index = len(pushed)
            try:
                self._classify(rule)
                positions = recursive_body_positions(
                    rule, self.plan.recursive, self.is_builtin
                )
                if not positions:
                    once_chunks.append(self._emit_rule(rule, rule_index, None))
                else:
                    for position in positions:
                        tag = self.dyn_tags[rule.body[position].key]
                        handler_chunks.setdefault(tag, []).append(
                            self._emit_rule(rule, rule_index, position)
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
                static_indexes=[],
                const_args=[],
                pushed_sources=frozenset(),
                fallbacks=fallbacks,
            )

        lines: List[str] = [
            "def _push(seeds, batches, indexes, consts, vals, intern_num, tick):"
        ]

        def w(indent: int, text: str) -> None:
            lines.append("    " * (indent + 1) + text)

        for r in range(len(pushed)):
            w(0, f"_a{r} = 0")
            w(0, f"_n{r} = 0")
        for i in range(len(self.out_preds)):
            w(0, f"seen{i} = set()")
            w(0, f"all{i} = []")
        for batch in range(len(self.static_preds)):
            w(0, f"_b{batch} = batches[{batch}]")
        for position, name in enumerate(self.static_indexes.values()):
            w(0, f"{name} = indexes[{position}]")
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
        remainders = " + ".join(f"(_n{r} & {_TICK_MASK})" for r in range(len(pushed)))
        w(0, f"tick({remainders})")
        per_pred = ", ".join(
            f"(all{i}, _s{i})" for i in range(len(self.out_preds))
        )
        counts = ", ".join(f"(_a{r}, _n{r})" for r in range(len(pushed)))
        trailing = "," if len(self.out_preds) == 1 else ""
        w(0, f"return ({per_pred}{trailing}), ({counts},)")

        source = "\n".join(lines) + "\n"
        namespace: Dict[str, object] = {}
        exec(compile(source, "<push scc>", "exec"), namespace)
        rules = [self.plan.rules[index] for index in pushed]
        return PushProgram(
            source=source,
            fn=namespace["_push"],
            out_preds=self.out_preds,
            static_preds=list(self.static_preds),
            static_indexes=list(self.static_indexes),
            const_args=list(self.const_args),
            pushed_sources=frozenset(pushed),
            rules=rules,
            evaluates=any(
                literal.arity == 2
                and (literal.pred in _COMPARISONS or literal.pred == "=")
                for rule in rules
                for literal in rule.body
            ),
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
                _, rule_index, out_i, head_exprs = payload
                self._render_insert(w, base + indent, rule_index, out_i, head_exprs)

    def _render_insert(
        self, w, indent: int, r: int, out_i: int, head_exprs: Sequence[str]
    ) -> None:
        head = f"({', '.join(head_exprs)}{',' if head_exprs else ''})"
        w(indent, f"_a{r} += 1")
        w(indent, f"if not (_a{r} & {_ATTEMPT_MASK}):")
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
        w(indent + 1, f"_n{r} += 1")
        w(indent + 1, f"if not (_n{r} & {_TICK_MASK}):")
        w(indent + 2, f"tick({_TICK_MASK + 1})")


# -- the session-resident half -------------------------------------------------


def _key_of(positions: tuple):
    return lambda ids: tuple([ids[p] for p in positions])


class _Resident:
    """A relation as pushed code reads it: its tuples interned, and one hash
    index per bound-position pattern some program probes.  A base
    relation's stays resident in the session's :class:`PushState`; an
    instance's own relation is handed on by the pushed SCC that computed
    it, for the rest of the call, or interned for the run."""

    __slots__ = ("seen", "tuples", "indexes")

    def __init__(self, seen: Watermark, rows: Iterable[tuple]) -> None:
        #: how far ``tuples`` has read the relation
        self.seen = seen
        #: interned tuple -> None: an insertion-ordered set
        self.tuples: Dict[tuple, None] = dict.fromkeys(rows)
        #: bound positions -> {key: [interned tuples]}
        self.indexes: Dict[tuple, Dict[tuple, list]] = {}

    def absorb(self, arrived: List[Tuple], intern) -> bool:
        """Take in ``arrived`` (all the relation's tuples, or those past
        ``seen``); False (and nothing usable) when one is not ground."""
        if not arrived:
            return True
        tuples = self.tuples
        fresh = []
        for tup in arrived:
            if not tup.is_ground():
                return False
            ids = tuple(map(intern, tup.args))
            if ids not in tuples:
                tuples[ids] = None
                fresh.append(ids)
        for positions, index in self.indexes.items():
            key_of = _key_of(positions)
            for ids in fresh:
                index.setdefault(key_of(ids), []).append(ids)
        return True

    def catch_up(self, relation: Relation, intern, held: int = 0) -> bool:
        """Whether this copy still reads ``relation``, taking in what
        arrived since: the same relation object, and the copy plus those
        arrivals count it and the ``held`` rows it has yet to take in (a
        delete that bypassed ``EvalContext.notify_delete`` makes them
        disagree)."""
        if self.seen.relation is not relation:
            return False
        arrived = self.seen.arrivals()
        if len(self.tuples) + len(arrived) != len(relation) + held:
            return False
        return self.absorb(arrived, intern)

    def index(self, positions: tuple) -> Dict[tuple, list]:
        index = self.indexes.get(positions)
        if index is None:
            index = self.indexes[positions] = {}
            key_of = _key_of(positions)
            for ids in self.tuples:
                index.setdefault(key_of(ids), []).append(ids)
        return index

    def discard(self, ids: tuple) -> None:
        if ids not in self.tuples:
            return
        del self.tuples[ids]
        for positions, index in self.indexes.items():
            key = _key_of(positions)(ids)
            bucket = index[key]
            bucket.remove(ids)
            if not bucket:
                del index[key]


class PushState:
    """The push backend's session-resident state (``EvalContext.push``).

    One :class:`InternTable` for the session, and per base relation a
    pushed SCC reads, a :class:`_Resident` copy keyed by the relation's
    identity (a rebound read starts a new one).  A run brings each copy up
    to date before it starts: inserts are the relation's tuples past the
    copy's :class:`~repro.relations.Watermark` (which takes no mark, so
    reads leave the base's segments alone), deletes were
    already applied by :meth:`on_delete` (``EvalContext.notify_delete``,
    every commit's fan-out).  The copy plus those arrivals must count
    ``len(relation)``; a delete that bypassed the fan-out makes them
    disagree, and the copy is rebuilt.  What a run interns beyond the bases
    (seeds, rule outputs, computed numbers) is truncated away when it
    ends, so the table is bounded by the values the bases have held, not
    by the queries."""

    def __init__(self) -> None:
        self.intern = InternTable()
        self._bases: Dict[PredKey, _Resident] = {}

    def resident(
        self, key: PredKey, relation: Relation
    ) -> Optional[_Resident]:
        """``relation``'s current resident copy; None while it holds a
        non-ground tuple."""
        intern = self.intern.intern
        entry = self._bases.get(key)
        if entry is not None and entry.catch_up(relation, intern):
            return entry
        entry = _resident(relation, intern)
        if entry is None:
            self._bases.pop(key, None)
        else:
            self._bases[key] = entry
        return entry

    def on_delete(self, key: PredKey, tup: Tuple) -> None:
        entry = self._bases.get(key)
        if entry is None or not tup.is_ground():
            return
        ids = []
        for arg in tup.args:
            ident = self.intern.find(arg)
            if ident is None:
                return  # a value never interned: the tuple is not resident
            ids.append(ident)
        entry.discard(tuple(ids))


def _resident(relation: Relation, intern) -> Optional[_Resident]:
    """All of ``relation`` interned, or None if a tuple is not ground."""
    entry = _Resident(Watermark(relation), ())
    return entry if entry.absorb(relation.inserted_after(0), intern) else None


class HandOff:
    """What a call's pushed SCCs leave the SCCs after them and its cursor,
    emptied when the call's evaluation ends.  ``rows``: an output's interned
    rows, with the push state that numbered them and how far they read its
    relation.  ``held``: the new rows of an output in ``keep`` as (count,
    columns of values), left out of its relation — the next pushed SCC
    takes them from ``rows``, the cursor takes the answers, and only a run
    that falls back has them put in (:meth:`fill`)."""

    __slots__ = ("rows", "held", "keep")

    def __init__(self) -> None:
        self.rows: Dict[PredKey, PyTuple[PushState, Watermark, List[tuple]]] = {}
        self.held: Dict[PredKey, PyTuple[int, List[list]]] = {}
        #: set once, when its instance becomes a call skeleton
        #: (``MaterializedInstance.home``); a private instance keeps nothing
        self.keep: FrozenSet[PredKey] = frozenset()

    def fill(self, scope: LocalScope) -> None:
        """Put every held row into its relation."""
        for key, (count, columns) in self.held.items():
            rows = list(zip(*columns)) if columns else [()] * count
            keys = [tuple([arg.ground_key() for arg in row]) for row in rows]
            scope.local[key].insert_new(rows, keys)
        self.held.clear()

    def clear(self) -> None:
        self.rows.clear()
        self.held.clear()

    def take(
        self, key: PredKey, state: PushState, relation: Relation
    ) -> Optional[_Resident]:
        """The rows an earlier pushed SCC of this call left for
        ``relation``, numbered by ``state`` and caught up as a resident base
        is; None when there are none or they do not pass.  Either way they
        are taken, by one reader only: what it absorbs may hold ids its
        run's truncation kills."""
        handed = self.rows.pop(key, None)
        if handed is None or handed[0] is not state:
            return None
        entry = _Resident(handed[1], handed[2])
        held = self.held.get(key, (0,))[0]
        return entry if entry.catch_up(relation, state.intern.intern, held) else None


class PushSCCEvaluator(SCCEvaluator):
    """An :class:`SCCEvaluator` whose first fixpoint run is the compiled
    push program; out-of-class rules interleave through the interpreter.

    Sequencing per run: (1) out-of-class once rules run interpreted — their
    heads land in the local relations and become push seeds alongside the
    magic seed; (2) the push function runs to its fixpoint over interned
    tuples, new facts are flushed back into the relations, and the
    outputs' interned rows are left for later pushed SCCs; (3) if any
    recursive rule was *not* pushed, the ordinary delta loop runs with the
    pushed rules suppressed for the first iteration (``prev = 0`` makes the
    last-delta triangular version cover the full cross product, so the
    interpreted rules see every pushed fact exactly once); from the second
    iteration on, all rules participate over real delta windows, so
    interpreter-derived facts flow back into the pushed rules' logic too.
    A run that finds a non-ground fact among its inputs pushes nothing: the
    pushed rules run interpreted too, and the fallback is recorded.
    """

    def __init__(
        self,
        scope: LocalScope,
        plan: SCCPlan,
        strategy: str = "bsn",
        use_backjumping: bool = True,
        *,
        compiler: PushCompiler,
        handoff: HandOff,
    ) -> None:
        super().__init__(scope, plan, strategy, use_backjumping)
        self.compiler = compiler
        #: the instance's hand-off between its pushed SCCs and its cursor
        self._handoff = handoff
        self._program = self.compiler.program_for(
            plan, scope.ctx.is_builtin, obs=scope.ctx.obs
        )
        self._pushed_sources: FrozenSet[int] = (
            self._program.pushed_sources
            if self._program is not None
            else frozenset()
        )
        self._suppress_pushed = False
        #: whether the first run was pushed (False: it fell back)
        self._pushed_run = False
        self._unpushed_delta = any(
            rule.source_index not in self._pushed_sources
            for rule in plan.delta_rules
        )
        #: every rule of the SCC is fused into the program
        self.whole = self._program is not None and not self._program.fallbacks

    # -- interpreter interleaving ---------------------------------------------

    def _apply(self, rule, executor) -> None:
        if self._suppress_pushed and rule.source_index in self._pushed_sources:
            return
        super()._apply(rule, executor)

    def iterations(self):
        if self._program is None or self._started:
            # nothing compiled, or a resumption: plain interpreted fixpoint
            yield from super().iterations()
            return
        self._suppress_pushed = True
        try:
            yield self._seed()
            if self._pushed_run and not self._unpushed_delta:
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
        if self._program is None:
            return
        reason = self._run_push()
        self._pushed_run = reason is None
        if reason is not None:
            # interpret the whole run: the pushed once rules now, every
            # delta rule from the first iteration on, over every row
            self._handoff.fill(self.scope)
            self._suppress_pushed = False
            for rule, executor in self._once_executors:
                if rule.source_index in self._pushed_sources:
                    self._apply(rule, executor)
            self.compiler.refuse(
                _scc_label(self.plan), reason, len(self._pushed_sources),
                self.scope.ctx.obs,
            )

    # -- the push run ----------------------------------------------------------

    def _run_push(self) -> Optional[str]:
        """Run the program over the session's resident bases and flush what
        it derived; returns why it could not run, or None."""
        program = self._program
        scope = self.scope
        ctx = scope.ctx
        state = ctx.push
        if state is None:
            state = ctx.push = PushState()
        intern = state.intern
        intern_arg = intern.intern
        handoff = self._handoff

        bases: Dict[PredKey, _Resident] = {}
        for key in program.static_preds:
            if key not in scope.local:
                entry = state.resident(key, scope.relation(*key))
                if entry is None:
                    return "non-ground fact in base relation %s/%d" % key
                bases[key] = entry
        consts = [intern_arg(arg) for arg in program.const_args]
        watermark = len(intern)
        try:
            batches = []
            for key in program.static_preds:
                entry = bases.get(key)
                if entry is None:  # the instance's own
                    entry = handoff.take(key, state, scope.local[key])
                    if entry is None:
                        handoff.fill(scope)
                        entry = _resident(scope.local[key], intern_arg)
                        if entry is None:
                            return "non-ground fact in %s/%d" % key
                batches.append(entry)
            indexes = [
                batches[batch].index(positions)
                for batch, positions in program.static_indexes
            ]
            batches = [entry.tuples for entry in batches]
            seeds = []
            for key in program.out_preds:
                seed = _resident(scope.local[key], intern_arg)
                if seed is None:
                    return "non-ground fact in %s/%d" % key
                seeds.append(list(seed.tuples))
            if program.evaluates and any(
                is_arith_expr(intern.args[ident]) for ident in intern.functors
            ):
                # the interpreter evaluates a stored 1+2 where a guard or
                # = reads it; push would compare the term itself
                return ARITH_VALUE
            per_pred = self._push(seeds, batches, indexes, consts, intern)
            if len(intern) == watermark:
                # every id survives the truncation: hand the outputs on,
                # read up to now (after the flush)
                for key, (all_tuples, _) in zip(program.out_preds, per_pred):
                    handoff.rows[key] = (
                        state, Watermark(scope.local[key]), all_tuples
                    )
        finally:
            intern.truncate(watermark)
        return None

    def _push(self, seeds, batches, indexes, consts, intern):
        """Run the program and flush its new facts; returns ``per_pred``."""
        program = self._program
        ctx = self.scope.ctx
        stats = ctx.stats
        limits = ctx.limits

        def tick(count: int) -> None:
            # the push loop bypasses scope.insert_fact; account for derived
            # facts (and consult the resource guard) in batches instead
            stats.facts_inserted += count
            if limits is not None:
                limits.checkpoint(stats)

        obs = ctx.obs
        started = (
            obs.begin_iteration(self._obs_label(), 1) if obs is not None else 0.0
        )
        try:
            per_pred, counts = program.fn(
                seeds, batches, indexes, consts, intern.vals, intern.intern_num,
                tick,
            )
        except ZeroDivisionError:
            raise EvaluationError(
                f"division by zero in a rule of {_scc_label(self.plan)}"
            ) from None
        elapsed = time.perf_counter() - started if obs is not None else 0.0

        new_facts = 0
        handoff = self._handoff
        for key, (all_tuples, seed_count) in zip(program.out_preds, per_pred):
            fresh = all_tuples[seed_count:]
            new_facts += len(fresh)
            if key in handoff.keep:
                # as values, before the truncation
                handoff.held[key] = (len(fresh), interned_columns(fresh, intern.args))
            elif fresh:
                # seen was seeded from this relation's contents, so all
                # beyond the seed prefix is new: the unchecked bulk path
                self.scope.local[key].insert_interned(
                    fresh, intern.args, intern.keys
                )
        attempts = sum(tried for tried, _ in counts)
        stats.inferences += attempts
        stats.duplicates += attempts - new_facts
        stats.rule_applications += program.rules_compiled
        stats.iterations += 1
        if obs is not None:
            obs.end_iteration(self._obs_label(), 1, new_facts, started)
            obs.pushed_rules(
                [
                    (rule, tried, new)
                    for rule, (tried, new) in zip(program.rules, counts)
                ],
                started, elapsed,
            )
        return per_pred
