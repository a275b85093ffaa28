"""Compiled evaluation mode (paper Section 2).

*"We also developed a fully compiled version of CORAL, in which we generated
a C++ program from each user program.  (This is the approach taken by LDL.)
We found that this approach took a significantly longer time to compile
programs, and the resulting gain in execution speed was minimal.  We have
therefore focused on the interpreted version."*

This package reproduces that experiment (benchmark E12) in Python terms
with one code generator — see ``docs/COMPILED.md`` for the architecture
and the compilable class.  The **push** backend (:class:`PushCompiler` +
:class:`PushSCCEvaluator`, :mod:`.push`) generates one function per *SCC*,
in the style of Brass & Stephan's push method.  Ground constants are
interned to dense ints (:class:`repro.terms.hashcons.InternTable`); derived
tuples are pushed through a LIFO worklist directly into consuming rule
bodies; semi-naive evaluation falls out of push order instead of
materialized delta relations; base relations are scanned batch-at-a-time
over pre-interned tuples.

Modules opt in with ``@compiled.`` (or ``@compiled(push).``), or
session-wide with ``Session(compiled="push")``.  The compilable class is
deliberately restricted, like any realistic codegen: flat argument patterns
(variables and primitive constants), positive non-builtin literals plus
comparisons and arithmetic ``=``, and ground facts.  Rules outside the
class fall back to the interpreter *per rule*; a form whose ``push``
verdict is a refusal (docs/INTERNALS.md, "Capabilities") runs interpreted
as a whole.  Every fallback is counted with its reason in
:class:`CompileStats` (``instance.compiler.stats``), shown by ``EXPLAIN``,
and surfaced through the ``compile.fallbacks`` profiler counter.
"""

from .push import CompileStats, PushCompiler, PushProgram, PushSCCEvaluator


def compile_report(compiled_form, is_builtin) -> CompileStats:
    """A dry-run :class:`CompileStats` for ``EXPLAIN``: what would compile,
    what would fall back (and why) if this module were instantiated now.

    This also warms the per-plan program cache, so the report costs nothing
    extra at first call time.
    """
    compiler = PushCompiler()
    if compiler.admits(compiled_form):
        for plan in compiled_form.scc_plans:
            compiler.program_for(plan, is_builtin)
    return compiler.stats


__all__ = [
    "CompileStats",
    "PushCompiler",
    "PushProgram",
    "PushSCCEvaluator",
    "compile_report",
]
