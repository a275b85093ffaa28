"""E12 — Section 2: interpreted vs compiled evaluation.

Paper claim: *"We also developed a fully compiled version of CORAL ... We
found that this approach took a significantly longer time to compile
programs, and the resulting gain in execution speed was minimal.  We have
therefore focused on the interpreted version; 'consulting' a program takes
very little time."*

Measured: consult/compile time and run time for transitive closure in both
modes.  The paper's trade-off should reproduce in shape: compilation costs
real up-front time per rule; run-time gains exist but are modest relative to
end-to-end cost.

A rule-at-a-time backend reproduced that shape (EXPERIMENTS.md E12 keeps
its last numbers).  The one compiled backend left, *push*
(``docs/COMPILED.md``), compiles a whole SCC into one function over interned
integers and escapes it: the comparison below measures interpreted vs push
on the fixpoint itself (evaluators driven directly, so answer streaming —
identical across backends — doesn't dilute the ratio) and records the
numbers in ``BENCH_push.json``.
"""

import time

import pytest

from repro import Session
from emit import emit
from workloads import (
    chain_edges,
    edge_facts,
    report,
    weighted_edge_facts,
    weighted_random_edges,
)

TC = """
module tc.
export path(bf).
{flags}
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

EDGES = edge_facts(chain_edges(150))


def _measure(flags: str):
    session = Session(compiled=None)  # the module's flag picks the backend
    started = time.perf_counter()
    session.consult_string(EDGES + TC.format(flags=flags))
    # force compilation of the query form (part of 'consult' cost here)
    session.modules.compiled_form("tc", "path", "bf")
    instance = session.modules.instance_for("tc", "path", "bf")
    consult_seconds = time.perf_counter() - started

    codegen = getattr(instance, "compiler", None)
    # best of three: one run is 5 ms, a collector pause is as long
    run_seconds = None
    for _ in range(3):
        started = time.perf_counter()
        answers = len(session.query("path(0, Y)").all())
        elapsed = time.perf_counter() - started
        run_seconds = elapsed if run_seconds is None else min(run_seconds, elapsed)
    return consult_seconds, run_seconds, answers, codegen


class TestE12CompiledMode:
    def test_consult_vs_run_tradeoff(self):
        interp_consult, interp_run, interp_answers, _ = _measure("")
        compiled_consult, compiled_run, compiled_answers, codegen = _measure(
            "@compiled."
        )
        assert interp_answers == compiled_answers == 150
        assert codegen is not None and codegen.stats.rules_compiled > 0
        rows = [
            (
                "interpreted",
                f"{interp_consult * 1000:.1f}",
                f"{interp_run * 1000:.1f}",
            ),
            (
                "compiled",
                f"{compiled_consult * 1000:.1f}",
                f"{compiled_run * 1000:.1f}",
            ),
        ]
        report(
            "E12: consult+compile vs run time (ms), 150-chain bound TC",
            ["mode", "consult+compile", "run"],
            rows,
        )
        print(
            f"   codegen: {codegen.stats.rules_compiled} rules compiled, "
            f"{codegen.stats.rules_interpreted} fell back, "
            f"{codegen.stats.generated_lines} generated lines"
        )
        print(
            f"   run time, interpreted / compiled: "
            f"{interp_run / compiled_run:.2f}x"
        )
        # the paper's shape: compilation adds consult-time cost...
        assert compiled_consult > interp_consult
        # ...while the run-time gain is real but bounded (not order-of-
        # magnitude for rule-at-a-time Datalog)
        assert compiled_run < interp_run
        assert compiled_run > interp_run / 20

    def test_fallback_rules_keep_compiled_module_correct(self):
        """A module mixing compilable and non-compilable rules answers
        identically in both modes (per-rule fallback)."""
        program = """
        item(1). item(2). item(3).

        module m.
        export wrapped(f).
        {flags}
        wrapped(W) :- item(X), W = f(X).
        end_module.
        """
        plain, compiled = (
            sorted(
                str(a.term("W"))
                for a in _session(program, flags).query("wrapped(W)")
            )
            for flags in ("", "@compiled.")
        )
        assert plain == compiled

    def test_interpreted_run_speed(self, benchmark):
        benchmark.pedantic(lambda: _measure(""), rounds=3, iterations=1)

    def test_compiled_run_speed(self, benchmark):
        benchmark.pedantic(lambda: _measure("@compiled."), rounds=3, iterations=1)


def _session(template: str, flags: str) -> Session:
    session = Session(compiled=None)  # the module's flag picks the backend
    session.consult_string(template.format(flags=flags))
    return session


# ---------------------------------------------------------------------------
# interpreted vs push on the fixpoint itself
# ---------------------------------------------------------------------------

# eager: a lazy form's recursive answer SCC streams through the interpreter
FULL_TC = """
module tc2.
export path(ff).
@eager_eval.
{flags}
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

# bench_e1's Figure-3 shortest path uses aggregate selections and cons
# lists, which are outside the push-compilable class (docs/COMPILED.md);
# its compilable stand-in is the cost-bounded weighted-path core that
# dominates that benchmark's fixpoint.
BOUNDED_WPATH = """
module wp.
export wpath(fff).
@eager_eval.
{flags}
wpath(X, Y, C) :- edge(X, Y, C).
wpath(X, Y, C) :- wpath(X, Z, C1), edge(Z, Y, EC), C = C1 + EC, C < 40.
end_module.
"""

_BACKEND_FLAGS = {
    "interpreted": "",
    "push": "@compiled.",
}


def _fixpoint_time(facts, template, module, pred, arity, backend, repeats=3):
    """Best-of-N wall time of running the materialized instance's
    evaluators to completion — the component the backends actually differ
    in.  Answer streaming (identical across backends) is excluded so the
    ratio measures the fixpoint, not the API."""
    best = None
    answers = 0
    for _ in range(repeats):
        session = _session(facts + template, _BACKEND_FLAGS[backend])
        instance = session.modules.instance_for(module, pred, "f" * arity)
        started = time.perf_counter()
        for evaluator in instance.evaluators:
            evaluator.run_to_completion()
        elapsed = time.perf_counter() - started
        answers = len(instance.scope.local[(pred, arity)])
        best = elapsed if best is None else min(best, elapsed)
    return best, answers


#: how many times faster than the interpreter push must be, per workload.
#: The numerator is the interpreter's time, so the bar moves when the
#: interpreter does: the ground-fact fast path in the join kernel took
#: e2_chain_tc's interpreted fixpoint from 390 to 192 ms (2.03x) with push
#: unmoved at 40 ms, and 5 / 2.03 rounds down to 2.0 (measured: 5.0x).
#: e1_bounded_wpath went 2,630 -> 1,320 ms against push's 111 ms: 12x, so its
#: 5x stands.  EXPERIMENTS.md E12 has the table.
PUSH_VS_INTERPRETED_BAR = {"e2_chain_tc": 2.0, "e1_bounded_wpath": 5.0}


class TestPushVsInterpreted:
    """The push backend's headline numbers: over the interpreter by
    :data:`PUSH_VS_INTERPRETED_BAR` on the E2 chain closure and on the E1
    stand-in."""

    def test_push_speedup_and_emit(self):
        workloads = {
            "e2_chain_tc": (
                edge_facts(chain_edges(150)),
                FULL_TC,
                ("tc2", "path", 2),
            ),
            "e1_bounded_wpath": (
                weighted_edge_facts(weighted_random_edges(60, 240)),
                BOUNDED_WPATH,
                ("wp", "wpath", 3),
            ),
        }
        counters = {}
        rows = []
        for name, (facts, template, (module, pred, arity)) in workloads.items():
            times = {}
            answer_counts = set()
            for backend in _BACKEND_FLAGS:
                elapsed, answers = _fixpoint_time(
                    facts, template, module, pred, arity, backend
                )
                times[backend] = elapsed
                answer_counts.add(answers)
            assert len(answer_counts) == 1, (
                f"{name}: backends disagree on answer count {answer_counts}"
            )
            counters[name] = {
                "facts": answer_counts.pop(),
                **{
                    f"{backend}_seconds": elapsed
                    for backend, elapsed in times.items()
                },
                "speedup_vs_interpreted": times["interpreted"] / times["push"],
                "bar_vs_interpreted": PUSH_VS_INTERPRETED_BAR[name],
            }
            rows.append(
                (
                    name,
                    f"{times['interpreted'] * 1000:.1f}",
                    f"{times['push'] * 1000:.1f}",
                    f"{times['interpreted'] / times['push']:.1f}x",
                )
            )
        # both absolute times, before any verdict: a push regression must
        # not hide behind a ratio (or behind a failed assertion)
        report(
            "E12+: fixpoint time (ms), interpreted vs push",
            ["workload", "interpreted", "push", "push speedup"],
            rows,
        )
        for name, measured in counters.items():
            # acceptance criterion: push beats the interpreter by the
            # workload's bar
            assert (
                measured["speedup_vs_interpreted"] >= measured["bar_vs_interpreted"]
            ), measured
        path = emit(
            "push",
            workload={
                "e2_chain_tc": {"graph": "chain", "length": 150},
                "e1_bounded_wpath": {
                    "graph": "weighted_random",
                    "nodes": 60,
                    "edges": 240,
                    "cost_bound": 40,
                },
            },
            wall_time_seconds=counters["e2_chain_tc"]["push_seconds"],
            counters=counters,
        )
        assert path.endswith("BENCH_push.json")

    def test_push_answers_match_interpreter_through_query_api(self):
        facts = edge_facts(chain_edges(60))
        answer_sets = {
            backend: sorted(
                set(
                    _session(facts + FULL_TC, flags)
                    .query("path(X, Y)")
                    .tuples()
                )
            )
            for backend, flags in _BACKEND_FLAGS.items()
        }
        assert answer_sets["push"] == answer_sets["interpreted"]
        assert len(answer_sets["push"]) == 60 * 61 // 2

    def test_push_run_speed(self, benchmark):
        facts = edge_facts(chain_edges(150))
        benchmark.pedantic(
            lambda: _fixpoint_time(
                facts, FULL_TC, "tc2", "path", 2, "push", repeats=1
            ),
            rounds=3,
            iterations=1,
        )
