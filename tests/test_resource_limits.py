"""Resource guards: bounded evaluation of unbounded fixpoints.

A served system cannot let one runaway query iterate forever (the unbounded
bottom-up iterations of Section 5.3): `ResourceLimits` bounds wall clock and
derived tuples, supports cooperative cancellation, and — crucially — leaves
the session usable after tripping."""

import threading
import time

import pytest

from repro import ResourceLimitError, ResourceLimits, Session
from repro.errors import CoralError

CHAIN = "\n".join(f"edge({i}, {i + 1})." for i in range(400))

#: pinned to supplementary magic: these tests need an evaluation that runs
#: for over a second so a 5 ms timeout or a 20 ms cancel lands inside it —
#: quadratic under magic, ~25 ms when the optimizer factors this recursion
TC_MODULE = """
module tc.
export path(bf).
@supplementary_magic.
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""


def _tc_session(limits=None):
    session = Session(limits=limits)
    session.consult_string(TC_MODULE + CHAIN)
    return session


class TestTupleLimit:
    def test_query_under_limit_succeeds(self):
        session = _tc_session()
        answers = session.query("path(390, X)").all(max_tuples=100_000)
        assert len(answers) == 10

    def test_query_over_limit_raises(self):
        session = _tc_session()
        with pytest.raises(ResourceLimitError, match="derived"):
            session.query("path(0, X)").all(max_tuples=50)

    def test_session_stays_usable_after_limit(self):
        session = _tc_session()
        with pytest.raises(ResourceLimitError):
            session.query("path(0, X)").all(max_tuples=50)
        # the guard is uninstalled: the same query, unbounded, now succeeds
        assert len(session.query("path(0, X)").all()) == 400
        # and re-bounding still works
        with pytest.raises(ResourceLimitError):
            session.query("path(1, X)").all(max_tuples=10)
        assert len(session.query("path(395, X)").all(max_tuples=1000)) == 5

    def test_limit_is_a_coral_error(self):
        session = _tc_session()
        with pytest.raises(CoralError):
            session.query("path(0, X)").all(max_tuples=5)


class TestTimeout:
    def test_timeout_raises_promptly(self):
        session = _tc_session()
        started = time.monotonic()
        with pytest.raises(ResourceLimitError, match="timeout"):
            session.query("path(0, X)").all(timeout=0.005)
        # "promptly": within one fixpoint iteration, far under the full
        # evaluation (which takes well over a second on this chain)
        assert time.monotonic() - started < 2.0

    def test_generous_timeout_passes(self):
        session = _tc_session()
        assert len(session.query("path(398, X)").all(timeout=30.0)) == 2

    def test_session_default_limits_apply(self):
        session = _tc_session(limits=ResourceLimits(timeout=0.005))
        with pytest.raises(ResourceLimitError):
            session.query("path(0, X)").all()
        # a per-call override relaxes the session default
        assert len(session.query("path(398, X)").all(timeout=30.0)) == 2


class TestCancellation:
    def test_cancel_from_another_thread(self):
        limits = ResourceLimits()
        session = _tc_session(limits=limits)
        timer = threading.Timer(0.02, limits.cancel)
        timer.start()
        try:
            with pytest.raises(ResourceLimitError, match="cancelled"):
                session.query("path(0, X)").all()
        finally:
            timer.cancel()

    def test_pre_cancelled_guard_stops_immediately(self):
        limits = ResourceLimits()
        limits.cancel()
        session = _tc_session(limits=limits)
        with pytest.raises(ResourceLimitError):
            session.query("path(0, X)").all()


class TestOtherStrategies:
    def test_pipelined_module_honors_limits(self):
        session = Session()
        session.consult_string(
            """
            module walk.
            export reach(bf).
            @pipelining.
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- edge(X, Z), reach(Z, Y).
            end_module.
            """
            + CHAIN
        )
        with pytest.raises(ResourceLimitError):
            session.query("reach(0, X)").all(timeout=0.005)
        assert len(session.query("reach(397, X)").all(timeout=30.0)) == 3

    def test_ordered_search_honors_limits(self):
        # ordered search stores answers in its own per-module tables, so the
        # tuple cap does not apply — but every subgoal consults the guard,
        # which sees cancellation (and the wall clock) immediately
        limits = ResourceLimits()
        limits.cancel()
        session = Session(limits=limits)
        session.consult_string(
            """
            module game.
            export win(b).
            @ordered_search.
            win(X) :- move(X, Y), not win(Y).
            end_module.
            """
            + "\n".join(f"move({i}, {i + 1})." for i in range(80))
        )
        with pytest.raises(ResourceLimitError, match="cancelled"):
            session.query("win(0)").all()

    def test_lazy_iteration_honors_limits(self):
        session = _tc_session(limits=ResourceLimits(max_tuples=50))
        with pytest.raises(ResourceLimitError):
            for _answer in session.query("path(0, X)"):
                pass


class TestGuardObject:
    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            ResourceLimits(timeout=0)
        with pytest.raises(ValueError):
            ResourceLimits(max_tuples=-1)

    def test_rearm_resets_budget(self):
        limits = ResourceLimits(max_tuples=5)

        class Stats:
            facts_inserted = 0

        stats = Stats()
        limits.start(stats)
        stats.facts_inserted = 5
        limits.check(stats)  # exactly at the cap: fine
        stats.facts_inserted = 6
        with pytest.raises(ResourceLimitError):
            limits.check(stats)
        limits.start(stats)  # re-arm: the baseline moves to 6
        stats.facts_inserted = 10
        limits.check(stats)

    def test_repr_mentions_bounds(self):
        text = repr(ResourceLimits(timeout=1.5, max_tuples=10))
        assert "1.5" in text and "10" in text
