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
materialized delta relations; base relations stay interned and indexed for
the session (:class:`PushState`).

It is the default backend: ``Session()`` pushes, ``Session(compiled=None)``
interprets, and ``@compiled.`` (or ``@compiled(push).``) pushes one module
of an interpreting session.  The compilable class is deliberately
restricted, like any realistic codegen: flat argument patterns (variables
and primitive constants), positive non-builtin literals plus comparisons
and ``=``.  Rules outside the class fall back to the interpreter *per
rule*; a lazy form's recursive answer SCC and a run over a non-ground fact
*per SCC*; a form whose ``push`` verdict is a refusal (docs/INTERNALS.md,
"Capabilities") runs interpreted as a whole.  Every fallback is counted
with its reason in
:class:`CompileStats` (``instance.compiler.stats``), shown by ``EXPLAIN``,
and surfaced through the ``compile.fallbacks`` profiler counter.
"""

from .push import (
    CompileStats,
    PushCompiler,
    PushProgram,
    PushSCCEvaluator,
    PushState,
)


def compile_report(
    compiled_form, is_builtin, capabilities=None
) -> CompileStats:
    """A dry-run :class:`CompileStats` for ``EXPLAIN``: what would compile,
    what would fall back (and why) if this module were instantiated now
    with the instance verdicts ``capabilities`` (default: the form's own).

    This also warms the per-plan program cache, so the report costs nothing
    extra at first call time.
    """
    compiler = PushCompiler()
    if capabilities is None:
        capabilities = compiled_form.capabilities
    if compiler.admits(compiled_form, capabilities):
        for plan in compiled_form.scc_plans:
            if compiler.admits_scc(compiled_form, plan):
                compiler.program_for(plan, is_builtin)
    return compiler.stats


__all__ = [
    "CompileStats",
    "PushCompiler",
    "PushProgram",
    "PushSCCEvaluator",
    "PushState",
    "compile_report",
]
