"""E2 — Section 5.3: semi-naive evaluation avoids rederivation.

Paper claim: semi-naive evaluation "perform[s] incremental evaluation of
rules across multiple iterations" via delta relations, where naive
evaluation (Bancilhon 1985, the paper's reference [2]) re-derives every
fact every iteration.

Measured: inference counts and duplicate-rejection counts for naive vs BSN
on transitive closure over chains and cycles.  Naive work is quadratic in
the iteration count on a chain (it rediscovers all shorter paths each
round); BSN touches each new combination once.
"""

import pytest

from repro import Session
from repro.eval.context import EvalContext, LocalScope
from repro.eval.fixpoint import SCCEvaluator, SCCPlan
from repro.builtins import default_registry
from repro.language import parse_module
from repro.rewriting.graph import (
    build_dependency_graph,
    condensation_order,
    recursive_predicates,
)

from workloads import chain_edges, cycle_edges, edge_facts, report, timed

REGISTRY = default_registry()


def _evaluate(edges, strategy: str):
    """Evaluate unrewritten left-linear TC bottom-up with one strategy,
    returning the ctx stats — the naive-vs-semi-naive comparison needs to
    drive the fixpoint evaluator directly with identical inputs."""
    module = parse_module(
        """
        module tc.
        export path(ff).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- path(X, Z), edge(Z, Y).
        end_module.
        """
    )
    ctx = EvalContext()
    edge_rel = ctx.base_relation("edge", 2)
    for a, b in edges:
        edge_rel.insert_values(a, b)
    scope = LocalScope(ctx)
    graph = build_dependency_graph(module.rules, REGISTRY.is_builtin)
    for component in condensation_order(graph):
        rules = [r for r in module.rules if r.head.key in component]
        plan = SCCPlan.build(
            component,
            recursive_predicates(graph, component),
            rules,
            REGISTRY.is_builtin,
            strategy=strategy,
        )
        SCCEvaluator(scope, plan, strategy=strategy).run_to_completion()
    answers = len(scope.local[("path", 2)])
    return ctx.stats, answers


class TestE2SemiNaive:
    def test_rederivation_counts_chain(self):
        rows = []
        for length in (8, 16, 32):
            naive_stats, naive_answers = _evaluate(chain_edges(length), "naive")
            bsn_stats, bsn_answers = _evaluate(chain_edges(length), "bsn")
            assert naive_answers == bsn_answers
            rows.append(
                (
                    length,
                    naive_answers,
                    bsn_stats.inferences,
                    naive_stats.inferences,
                    round(naive_stats.inferences / bsn_stats.inferences, 1),
                )
            )
        report(
            "E2: inferences on chain TC, semi-naive (BSN) vs naive",
            ["chain length", "facts", "BSN inferences", "naive inferences", "ratio"],
            rows,
        )
        # BSN derives each fact a bounded number of times; naive's ratio
        # grows with the iteration count
        assert rows[-1][4] > rows[0][4]
        assert rows[-1][4] > 4

    def test_semi_naive_no_rederivation_on_chain(self):
        """On a chain, BSN's duplicate count stays near zero — everything
        derived is new; naive's duplicates dominate its work."""
        naive_stats, _ = _evaluate(chain_edges(24), "naive")
        bsn_stats, _ = _evaluate(chain_edges(24), "bsn")
        assert bsn_stats.duplicates == 0
        assert naive_stats.duplicates > naive_stats.facts_inserted

    def test_cycle_fixpoint_same_answers(self):
        naive_stats, naive_answers = _evaluate(cycle_edges(12), "naive")
        bsn_stats, bsn_answers = _evaluate(cycle_edges(12), "bsn")
        assert naive_answers == bsn_answers == 144  # complete digraph closure
        assert bsn_stats.inferences < naive_stats.inferences

    def test_chain_wall_time(self):
        """One timed run of each strategy on the 32-edge chain."""
        edges = chain_edges(32)
        rows = []
        for strategy in ("bsn", "naive"):
            with timed() as t:
                stats, answers = _evaluate(edges, strategy)
            rows.append((strategy, answers, stats.inferences,
                         stats.duplicates, round(t.seconds * 1e3, 2)))
        report(
            "E2: chain TC of length 32, one run each",
            ["strategy", "facts", "inferences", "duplicates", "ms"],
            rows,
        )
        assert rows[0][1] == rows[1][1] == 32 * 33 // 2

    def test_bsn_speed(self, benchmark):
        edges = chain_edges(32)
        benchmark.pedantic(lambda: _evaluate(edges, "bsn"), rounds=3, iterations=1)

    def test_naive_speed(self, benchmark):
        edges = chain_edges(32)
        benchmark.pedantic(lambda: _evaluate(edges, "naive"), rounds=3, iterations=1)
