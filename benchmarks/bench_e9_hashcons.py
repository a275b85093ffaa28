"""E9 — Section 3.1: hash-consing makes unification of large terms cheap.

Paper claim: *"An important feature of the CORAL implementation of data
types is the support for unique identifiers to make unification of large
terms very efficient.  Such support is critical for efficient declarative
program evaluation in the presence of large terms."*

Measured:

* unifying two interned N-element ground lists is O(1) (identifier compare),
  independent of N; the structural path (forced by a variable at the end of
  one list) walks all N cells;
* duplicate checking of big-term tuples through ground keys is likewise
  size-independent after interning;
* on the paper's Figure 3, where every answer carries a path list, an
  inference costs a bounded number of Python calls and no general
  ``unify`` (counted, not timed).
"""

import cProfile
import pstats
import time

import pytest

from repro.relations import HashRelation, Tuple
from repro.terms import (
    BindEnv,
    Functor,
    Int,
    Trail,
    Var,
    hc_id,
    make_list,
    unify,
)
from repro import Session
from workloads import (
    SHORTEST_PATH_FIGURE_3,
    layered_dag_edges,
    report,
    weighted_edge_facts,
)


def _ground_list(n, offset=0):
    return make_list([Int(i + offset) for i in range(n)])


def _unify_once(left, right) -> bool:
    env = BindEnv()
    trail = Trail()
    try:
        return unify(left, env, right, env, trail)
    finally:
        trail.undo_to(0)


def _time_unifications(left, right, repetitions=400) -> float:
    start = time.perf_counter()
    for _ in range(repetitions):
        _unify_once(left, right)
    return time.perf_counter() - start


class TestE9HashConsing:
    def test_interned_unification_size_independent(self):
        rows = []
        for n in (10, 100, 1000):
            a, b = _ground_list(n), _ground_list(n)
            hc_id(a), hc_id(b)  # intern once (the lazy assignment)
            ground_time = _time_unifications(a, b)

            # force the structural path: a variable tail defeats the
            # identifier fast path, so unification walks all N cells
            var_tail = make_list([Int(i) for i in range(n - 1)], tail=Var("T"))
            structural_time = _time_unifications(var_tail, _ground_list(n))
            rows.append(
                (
                    n,
                    round(ground_time * 1000, 2),
                    round(structural_time * 1000, 2),
                    round(structural_time / ground_time, 1),
                )
            )
        report(
            "E9: 400 unifications of N-element lists (ms)",
            ["N", "hash-consed", "structural", "ratio"],
            rows,
        )
        hc_times = [row[1] for row in rows]
        # hash-consed time flat-ish across 100x size growth
        assert hc_times[-1] < hc_times[0] * 6
        # structural path grows with N and loses badly at the top end
        assert rows[-1][3] > 10

    def test_identifier_equivalence(self):
        """id(a) == id(b) iff a == b — spot-check on big terms."""
        a, b = _ground_list(500), _ground_list(500)
        c = _ground_list(500, offset=1)
        assert hc_id(a) == hc_id(b)
        assert hc_id(a) != hc_id(c)

    def test_duplicate_check_on_big_terms(self):
        """Inserting the same 1000-element list twice must cost two ground-
        key computations, not deep comparisons against every resident."""
        relation = HashRelation("big", 1)
        for offset in range(50):
            relation.insert(Tuple((_ground_list(200, offset),)))
        assert not relation.insert(Tuple((_ground_list(200, 7),)))
        assert len(relation) == 50

    def test_interned_unification_speed(self, benchmark):
        a, b = _ground_list(1000), _ground_list(1000)
        hc_id(a), hc_id(b)
        benchmark(lambda: _unify_once(a, b))

    def test_structural_unification_speed(self, benchmark):
        left = make_list([Int(i) for i in range(999)], tail=Var("T"))
        right = _ground_list(1000)
        benchmark(lambda: _unify_once(left, right))


class TestE9Figure3:
    def test_path_terms_cost_no_general_unify(self):
        """Calls and general ``unify`` calls per inference of single-source
        Figure 3 reads over a weighted layered DAG: a path term is a value
        the kernel matches, extends (``append/3``) and stores by id."""
        edges = [
            (a, b, 1 + (a * 7 + b) % 5) for a, b in layered_dag_edges(6, width=4)
        ]
        session = Session()
        session.consult_string(
            weighted_edge_facts(edges) + SHORTEST_PATH_FIGURE_3
        )
        sources = range(8)
        for source in sources:  # compile the form, intern the paths
            session.query(f"s_p({source}, Y, P, C)").all()
        before = session.stats.inferences
        profile = cProfile.Profile()
        profile.enable()
        for source in sources:
            session.query(f"s_p({source}, Y, P, C)").all()
        profile.disable()
        inferences = session.stats.inferences - before
        stats = pstats.Stats(profile)
        unify_calls = sum(
            counts[1]  # primitive calls
            for (path, _, name), counts in stats.stats.items()
            if name == "unify" and path.endswith("unify.py")
        )
        report(
            "E9: Figure 3 reads, per inference",
            ["inferences", "Python calls", "general unify"],
            [(
                inferences,
                round(stats.total_calls / inferences),
                round(unify_calls / inferences, 2),
            )],
        )
        assert inferences > 100
        # what is left is Ordered Search unifying each call's constants into
        # a rule head, once per subgoal: nothing per inference
        assert unify_calls / inferences < 0.5
