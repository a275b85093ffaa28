"""EXPLAIN / EXPLAIN ANALYZE: render the plan the optimizer would run a
query with, optionally annotated with measured per-rule costs.

The paper's CORAL writes the rewritten program to a text file "useful as a
debugging aid" (Section 2) — :meth:`CompiledForm.listing` reproduces that.
``explain`` goes further and answers the operator questions a slow-query
log raises: which module served the call, which declared query form was
chosen for the call's bindings, which rewriting technique and fixpoint
strategy apply, which consumers (push backend, view maintenance,
save-module resumption) may run on the form and why not, the SCC
evaluation order, and each semi-naive rule with
its body in join order (:mod:`repro.optimizer.joinorder` reordering, when
the module asked for it, is already baked into the compiled rules).

``analyze=True`` additionally *runs* the query under a trace-free
:class:`~repro.obs.profiler.Profiler` and appends measured counts: answers,
wall time, per-rule applications/derived/duplicates/time, and fixpoint
iterations.  This is the rendering shared by ``Session.explain``, the
shell's ``@explain``, and the slow-query log (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from typing import List

from ..errors import CoralError
from ..language import Literal, parse_query
from ..optimizer.capabilities import instance_capabilities


def _is_bound(arg) -> bool:
    for _ in arg.variables():
        return False
    return True


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 0.001:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.0f} us"


def _render_rules(lines: List[str], label: str, rules) -> None:
    if not rules:
        return
    lines.append(f"|      {label}:")
    for rule in rules:
        lines.append(f"|        {rule}")
        body = [str(lit) for lit in rule.body]
        if len(body) > 1:
            lines.append(f"|          join order: {' -> '.join(body)}")


def _explain_module(session, literal: Literal, lines: List[str]) -> None:
    module_name, export = session.modules.exports[(literal.pred, literal.arity)]
    module = session.modules.modules[module_name]
    bound = [_is_bound(arg) for arg in literal.args]
    call_adornment = "".join("b" if flag else "f" for flag in bound)
    form = session.modules.choose_form(export, bound)
    flags = " ".join(
        f"@{f.name}({f.argument})" if f.argument else f"@{f.name}"
        for f in module.flags
    )
    lines.append(
        f"+- predicate: {literal.pred}/{literal.arity}"
        f"   module: {module_name}"
        f"   declared forms: {', '.join(export.forms)}"
    )
    lines.append(
        f"+- call adornment: {call_adornment}"
        f"   chosen form: {form}"
        + (f"   module flags: {flags}" if flags else "")
    )
    if module.has_flag("pipelining"):
        lines.append(
            "+- evaluation: pipelined (tuple-at-a-time, no materialization)"
        )
        for rule in module.rules:
            lines.append(f"|      {rule}")
        return
    compiled = session.modules.compiled_form(module_name, literal.pred, form)
    rewritten = compiled.rewritten
    mode = (
        f"compiled to Python ({compiled.compiled})"
        if compiled.compiled
        else "interpreted"
    )
    lines.append(
        f"+- rewriting: {rewritten.technique}"
        f"   strategy: {compiled.strategy}"
        f"   answers: {'lazy' if compiled.lazy else 'eager'}"
        f"   {mode}"
    )
    lines += [f"|      {line}" for line in compiled.choice_lines()]
    capabilities = instance_capabilities(
        compiled, session.ctx, session.modules.exports
    )
    if compiled.compiled:
        from ..compilemod import compile_report

        report = compile_report(
            compiled, session.ctx.is_builtin, capabilities
        )
        lines.append(
            f"|      compile (push): "
            f"{report.rules_compiled} rule(s) compiled, "
            f"{report.rules_interpreted} interpreted"
        )
        for reason, count in sorted(report.fallbacks.items()):
            lines.append(f"|        fallback x{count}: {reason}")
    details = []
    if rewritten.magic_pred:
        details.append(f"magic predicate: {rewritten.magic_pred}")
    if rewritten.bound_positions:
        positions = ", ".join(str(p) for p in rewritten.bound_positions)
        details.append(f"bound positions: {positions}")
    if compiled.use_backjumping:
        details.append("intelligent backtracking")
    if details:
        lines.append(f"|      {';  '.join(details)}")
    index_count = sum(len(v) for v in compiled.index_specs.values()) + sum(
        len(v) for v in compiled.base_index_specs.values()
    )
    if index_count:
        lines.append(f"|      indexes selected: {index_count}")
    lines.append("+- capabilities (docs/INTERNALS.md):")
    lines += [f"|      {line}" for line in capabilities.lines()]
    lines.append(f"+- scc order ({len(compiled.scc_plans)} component(s))")
    for position, plan in enumerate(compiled.scc_plans, start=1):
        preds = ", ".join(f"{n}/{a}" for n, a in sorted(plan.preds))
        kind = "recursive" if plan.recursive else "non-recursive"
        lines.append(f"|    {position}. [{preds}]  {kind}")
        _render_rules(lines, "once rules", plan.once_rules)
        _render_rules(lines, "delta rules", plan.delta_rules)


def _explain_base(session, literal: Literal, lines: List[str]) -> None:
    relation = session.ctx.base_relations.get((literal.pred, literal.arity))
    if relation is None:
        raise CoralError(
            f"nothing known about {literal.pred}/{literal.arity}: neither a "
            f"module export nor a base relation"
        )
    try:
        size = len(relation)
    except (TypeError, CoralError):
        size = None
    described = type(relation).__name__
    lines.append(
        f"+- base relation scan: {literal.pred}/{literal.arity}"
        f"   [{described}]"
        + (f"   {size} tuples" if size is not None else "")
    )
    bound = [_is_bound(arg) for arg in literal.args]
    if any(bound):
        positions = ", ".join(
            str(i) for i, flag in enumerate(bound) if flag
        )
        lines.append(f"|      selection on argument(s): {positions}")
    else:
        lines.append("|      full scan (no bound arguments)")


def _analyze(session, literal: Literal, lines: List[str]) -> None:
    with session.profile(trace=False) as prof:
        answers = session.query_literal(literal).all()
    profile = prof.profile
    lines.append(
        f"+- ANALYZE: {len(answers)} answer(s)"
        f" in {_fmt_seconds(profile.wall_time)}"
    )
    e = profile.eval
    lines.append(
        f"|      iterations: {e.get('iterations', 0)}"
        f"   rule applications: {e.get('rule_applications', 0)}"
        f"   facts: {e.get('facts_inserted', 0)}"
        f"   duplicates: {e.get('duplicates', 0)}"
    )
    for rule in profile.rules:
        lines.append(
            f"|      {rule['applications']:>4} apps"
            f"  {rule['derived']:>6} derived"
            f"  {rule['duplicates']:>6} dup"
            f"  {_fmt_seconds(rule['time']):>8}"
            f"  {rule['rule']}"
        )
    rate = profile.buffer_hit_rate
    if rate is not None:
        lines.append(f"|      buffer hit rate: {rate:.1%}")


def explain_literal(
    session, literal: Literal, analyze: bool = False
) -> str:
    """The rendered plan for one query literal against ``session``."""
    lines: List[str] = [f"EXPLAIN {literal}"]
    if (literal.pred, literal.arity) in session.modules.exports:
        _explain_module(session, literal, lines)
    else:
        _explain_base(session, literal, lines)
    if analyze:
        _analyze(session, literal, lines)
    return "\n".join(lines)


def explain(session, query: str, analyze: bool = False) -> str:
    """The rendered plan for a textual query (``Session.explain``)."""
    return explain_literal(session, parse_query(query).literal, analyze)
