"""Live queries (ISSUE 8): incremental subscriptions, locally and over the
wire.

Covers the maintenance semantics (snapshot + exactly-once ordered deltas,
eager repair via the shared maintenance engine), the refusal matrix for
unmaintainable programs, the memo/live shared-predicate regression, and the
server plumbing: SUBSCRIBE/DELTA/UNSUBSCRIBE, bounded queues with
drop-to-resnapshot, reclamation on client death, and the guarantee that a
stalled subscriber never blocks a concurrent writer's commit.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import Session
from repro.client import RemoteSession
from repro.errors import SubscriptionError
from repro.server import CoralServer

from .test_memo import FACTORED

TC = """
edge(1, 2). edge(2, 3). edge(3, 4).

module tc.
export path(ff, bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""


def _collect(session, query):
    """Subscribe and return (view, log) where log records every delta."""
    log = []
    view = session.subscribe(query, log.extend)
    return view, log


def _values(tup):
    from repro.terms import from_arg

    return tuple(from_arg(a) for a in tup.args)


def _fold(snapshot, log):
    state = {t.key(): _values(t) for t in snapshot}
    for sign, tup in log:
        if sign > 0:
            state[tup.key()] = _values(tup)
        else:
            state.pop(tup.key(), None)
    return sorted(state.values())


class TestLiveViewLocal:
    def test_snapshot_then_insert_and_delete_deltas(self):
        session = Session()
        session.consult_string(TC)
        view, log = _collect(session, "?- path(X, Y).")
        snapshot = view.snapshot()
        assert len(snapshot) == 6
        session.insert("edge", 4, 5)
        inserts = [(s, _values(t)) for s, t in log]
        assert all(s == 1 for s, _ in inserts)
        assert sorted(v for _, v in inserts) == [
            (1, 5), (2, 5), (3, 5), (4, 5),
        ]
        log.clear()
        session.delete("edge", 1, 2)
        deletes = [(s, _values(t)) for s, t in log]
        assert all(s == -1 for s, _ in deletes)
        assert sorted(v for _, v in deletes) == [
            (1, 2), (1, 3), (1, 4), (1, 5),
        ]

    def test_folded_stream_equals_live_query(self):
        session = Session()
        session.consult_string(TC)
        view, log = _collect(session, "?- path(X, Y).")
        snapshot = view.snapshot()
        session.insert("edge", 4, 5)
        session.delete("edge", 2, 3)
        session.insert("edge", 2, 4)
        session.delete("edge", 4, 5)
        expected = sorted(set(session.query("path(X, Y)").tuples()))
        assert _fold(snapshot, log) == expected

    def test_bound_goal_filters_deltas(self):
        session = Session()
        session.consult_string(TC)
        view, log = _collect(session, "?- path(1, Y).")
        assert sorted(_values(t) for t in view.snapshot()) == [
            (1, 2), (1, 3), (1, 4),
        ]
        session.insert("edge", 4, 5)
        assert sorted(_values(t) for _, t in log) == [(1, 5)]

    @pytest.mark.parametrize("flag", ["", "@supplementary_magic."])
    def test_factored_view_does_not_go_stale_on_delete(self, flag):
        """Mirror of the memo regression: the context relation of a
        factored view shrinks under DRed, the call's own seed stays."""
        session = Session()
        session.consult_string(FACTORED % flag)
        view, log = _collect(session, "?- d1(4, Y).")
        snapshot = view.snapshot()
        assert len(snapshot) == 5
        session.delete("b1", 4, 5)
        assert _fold(snapshot, log) == [(4, 2), (4, 4)]
        assert sorted(v for _, t in log for v in [_values(t)]) == [
            (4, 1), (4, 3), (4, 5),
        ]
        session.insert("b1", 4, 5)
        assert len(_fold(snapshot, log)) == 5
        assert session.live.snapshot()["rebuilds"] == 0

    def test_base_relation_view(self):
        session = Session()
        session.consult_string("edge(1, 2). edge(2, 3).")
        view, log = _collect(session, "?- edge(X, Y).")
        assert len(view.snapshot()) == 2
        session.insert("edge", 7, 8)
        session.delete("edge", 1, 2)
        assert [(s, _values(t)) for s, t in log] == [
            (1, (7, 8)), (-1, (1, 2)),
        ]

    def test_exactly_once_per_commit_in_order(self):
        """One delta event per committed mutation, never a duplicate key
        within an event, and folding never resurrects a dead tuple."""
        session = Session()
        session.consult_string(TC)
        events = []
        view = session.subscribe(
            "?- path(X, Y).", lambda deltas: events.append(list(deltas))
        )
        session.insert("edge", 4, 5)
        session.insert("edge", 4, 5)  # no-op: already present
        session.delete("edge", 4, 5)
        assert len(events) == 2  # the duplicate insert emitted nothing
        for event in events:
            keys = [t.key() for _, t in event]
            assert len(keys) == len(set(keys))
        # the insert event precedes (and mirrors) the delete event
        assert {t.key() for _, t in events[0]} == {
            t.key() for _, t in events[1]
        }
        assert all(s == 1 for s, _ in events[0])
        assert all(s == -1 for s, _ in events[1])

    def test_unsubscribe_stops_deltas(self):
        session = Session()
        session.consult_string(TC)
        view, log = _collect(session, "?- path(X, Y).")
        assert session.unsubscribe(view.view_id)
        session.insert("edge", 4, 5)
        assert log == []
        assert not session.unsubscribe(view.view_id)

    def test_module_unload_closes_view(self):
        session = Session()
        session.consult_string(TC)
        closed = []
        view = session.subscribe(
            "?- path(X, Y).", lambda deltas: None, closed.append
        )
        session.modules.unload("tc")
        assert view.closed
        assert closed and "tc" in closed[0]
        assert session.live.snapshot()["subscriptions"] == 0

    def test_unrelated_module_load_keeps_view_correct(self):
        session = Session()
        session.consult_string(TC)
        view, log = _collect(session, "?- path(X, Y).")
        session.consult_string(
            "module other.\nexport q(f).\nq(1).\nend_module.\n"
        )
        assert not view.closed
        session.insert("edge", 4, 5)
        expected = sorted(set(session.query("path(X, Y)").tuples()))
        assert sorted(_values(t) for t in view.snapshot()) == expected

    def test_stats_snapshot_counts(self):
        session = Session()
        session.consult_string(TC)
        _view, _log = _collect(session, "?- path(X, Y).")
        session.insert("edge", 4, 5)
        stats = session.live.snapshot()
        assert stats["subscriptions"] == 1
        assert stats["deltas_emitted"] >= 4
        assert stats["refreshes"] >= 1


class TestRebuildFallbackIsVisible:
    """A failed repair still degrades to a rebuild, and the delta stays
    right — but the view says why, so a repair path that always fails
    cannot pass for one that works, only slower."""

    CHAIN = "".join(f"edge({n}, {n + 1}).\n" for n in range(1, 20)) + TC[
        TC.index("module tc."):
    ]

    @staticmethod
    def _rebuild_events(prof):
        return [
            event for event in prof.profile.chrome_trace()["traceEvents"]
            if event["name"] == "live.rebuild"
        ]

    def test_damage_rebuild_is_counted_and_traced_as_damage(self, monkeypatch):
        session = Session()
        session.consult_string(self.CHAIN)
        view, log = _collect(session, "?- path(X, Y).")
        snapshot = view.snapshot()
        monkeypatch.setattr("repro.eval.maintenance.DAMAGE_THRESHOLD", 0.0)
        with session.profile() as prof:
            session.delete("edge", 10, 11)  # over-deletes 10 * 10 facts
        assert _fold(snapshot, log) == sorted(
            set(session.query("path(X, Y)").tuples())
        )
        assert len(log) == 100 and all(sign < 0 for sign, _ in log)
        stats = session.live.snapshot()
        assert stats["rebuilds"] == 1 and stats["rebuilds_damage"] == 1
        assert stats["rebuilds_error"] == 0
        (event,) = self._rebuild_events(prof)
        assert event["args"]["reason"] == "damage"

    def test_failing_repair_is_counted_and_traced_by_exception_type(
        self, monkeypatch
    ):
        from repro.eval.maintenance import MaintenancePlan

        def broken(self, change=None):
            raise ZeroDivisionError("a repair path that always throws")

        monkeypatch.setattr(MaintenancePlan, "apply_inserts", broken)
        session = Session()
        session.consult_string(TC)
        view, log = _collect(session, "?- path(1, Y).")
        snapshot = view.snapshot()
        with session.profile() as prof:
            session.insert("edge", 4, 5)
        assert _fold(snapshot, log) == [(1, 2), (1, 3), (1, 4), (1, 5)]
        stats = session.live.snapshot()
        assert stats["rebuilds"] == 1 and stats["rebuilds_error"] == 1
        assert stats["rebuilds_damage"] == 0 and stats["refreshes"] == 0
        (event,) = self._rebuild_events(prof)
        assert event["args"]["reason"] == "ZeroDivisionError"

    def test_module_reload_rebuilds_are_counted_apart(self):
        session = Session()
        session.consult_string(TC)
        _collect(session, "?- path(X, Y).")
        session.consult_string(
            "module other.\nexport q(f).\nq(1).\nend_module.\n"
        )
        stats = session.live.snapshot()
        assert stats["rebuilds"] == stats["rebuilds_modules"] == 1
        assert stats["rebuilds_damage"] == stats["rebuilds_error"] == 0


class TestRefusalMatrix:
    """Unmaintainable programs are refused at subscribe time with a typed
    error naming the obstruction (the ``maintain`` column of
    docs/INTERNALS.md's capability table)."""

    CASES = {
        "negation": (
            "e(1, 2). blocked(2).\nmodule m.\nexport ok(ff).\n"
            "ok(X, Y) :- e(X, Y), not blocked(X).\nend_module.",
            "?- ok(X, Y).",
            "negation",
        ),
        "aggregation": (
            "item(a, 3).\nmodule m.\nexport best(ff).\n"
            "best(G, max(<V>)) :- item(G, V).\nend_module.",
            "?- best(G, V).",
            "aggregation",
        ),
        "save_module": (
            "e(1, 2).\nmodule m.\n@save_module.\nexport ok(ff).\n"
            "ok(X, Y) :- e(X, Y).\nend_module.",
            "?- ok(X, Y).",
            "save_module",
        ),
        "pipelining": (
            "e(1, 2).\nmodule m.\n@pipelining.\nexport ok(ff).\n"
            "ok(X, Y) :- e(X, Y).\nend_module.",
            "?- ok(X, Y).",
            "pipelin",
        ),
        "cross_module": (
            "e(1, 2).\nmodule low.\nexport lo(ff).\n"
            "lo(X, Y) :- e(X, Y).\nend_module.\n"
            "module high.\nexport hi(ff).\n"
            "hi(X, Y) :- lo(X, Y).\nend_module.",
            "?- hi(X, Y).",
            "module",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_refused_with_reason(self, name, monkeypatch):
        program, query, fragment = self.CASES[name]
        session = Session()
        session.consult_string(program)
        built = []
        monkeypatch.setattr(session.modules, "instance_for",
                            lambda *args: built.append(args))
        with pytest.raises(SubscriptionError) as err:
            session.subscribe(query, lambda deltas: None)
        assert fragment in str(err.value)
        assert built == []  # refused before an instance touches shared state

    def test_compiled_module_subscribes_and_folds_to_cold_truth(self):
        """Push flushes into the instance's relations, which is all the
        delta joins read: a compiled module is maintained like any other."""
        compiled = TC.replace("module tc.", "module tc.\n@compiled.")
        session = Session()
        session.consult_string(compiled)
        views = {
            query: _collect(session, f"?- {query}.")
            for query in ("path(X, Y)", "path(1, Y)")
        }
        snapshots = {query: view.snapshot() for query, (view, _) in views.items()}
        session.insert("edge", 4, 5)
        session.delete("edge", 2, 3)
        session.insert("edge", 1, 3)
        cold = Session()
        cold.consult_string(
            TC.replace("edge(2, 3). ", "") + "edge(4, 5). edge(1, 3).\n"
        )
        for query, (_view, log) in views.items():
            assert log, query
            assert _fold(snapshots[query], log) == sorted(
                cold.query(query).tuples()
            ), query
        assert session.live.snapshot()["rebuilds"] == 0

    def test_builtin_goal_is_refused(self):
        session = Session()
        with pytest.raises(SubscriptionError, match="builtin"):
            session.subscribe("?- X = 1.", lambda deltas: None)

    def test_refusals_are_counted(self):
        session = Session()
        session.consult_string(self.CASES["negation"][0])
        with pytest.raises(SubscriptionError):
            session.subscribe("?- ok(X, Y).", lambda deltas: None)
        assert session.live.snapshot()["refusals"] == 1


class TestMemoAndLiveShareAPredicate:
    """Regression (ISSUE 8, satellite 4): a memo entry and a live view over
    the same predicate each own their repair state — pending deletes must
    not be double-applied against the pre-state union."""

    def test_interleaved_memoized_queries_and_subscription_updates(self):
        session = Session(memo=True)
        session.consult_string(TC)
        # populate the memo entry, then register the live view
        assert len(session.query("path(X, Y)").all()) == 6
        view, log = _collect(session, "?- path(X, Y).")
        snapshot = view.snapshot()

        # interleave: each mutation repairs the live view eagerly (at the
        # hook) and the memo entry lazily (at the next lookup)
        session.delete("edge", 2, 3)
        memo_now = sorted(set(session.query("path(X, Y)").tuples()))
        fresh = Session()
        fresh.consult_string(TC.replace("edge(2, 3). ", ""))
        cold = sorted(set(fresh.query("path(X, Y)").tuples()))
        assert memo_now == cold
        assert _fold(snapshot, log) == cold

        session.insert("edge", 2, 7)
        session.insert("edge", 7, 3)
        session.delete("edge", 3, 4)
        memo_now = sorted(set(session.query("path(X, Y)").tuples()))
        fresh = Session()
        fresh.consult_string(
            TC.replace("edge(2, 3). ", "").replace("edge(3, 4).", "")
            + "edge(2, 7). edge(7, 3)."
        )
        cold = sorted(set(fresh.query("path(X, Y)").tuples()))
        assert memo_now == cold
        assert _fold(snapshot, log) == cold
        # the memo entry was repaired (not evicted) and the live view
        # repaired eagerly: both paths ran DRed against their own state
        assert session.memo.snapshot()["dred_overdeleted"] > 0
        assert session.live.snapshot()["refreshes"] > 0

    def test_delete_applied_once_when_memo_freshens_after_live(self):
        """The live view's eager DRed must leave the memo entry's pending
        delete queue intact (and vice versa)."""
        session = Session(memo=True)
        session.consult_string(TC)
        session.query("path(X, Y)").all()
        view, log = _collect(session, "?- path(X, Y).")
        session.delete("edge", 1, 2)
        # live repaired at the hook; memo still has the delete pending.
        # Its lazy freshen must now remove exactly the same answers.
        got = sorted(set(session.query("path(X, Y)").tuples()))
        assert got == [(2, 3), (2, 4), (3, 4)]
        assert sorted(_values(t) for t in view.snapshot()) == got


def _boot_server(**kwargs):
    return CoralServer(host="127.0.0.1", port=0, **kwargs)


class TestServerSubscriptions:
    def test_subscribe_poll_unsubscribe_roundtrip(self):
        with _boot_server() as server:
            host, port = server.address
            with RemoteSession(host, port) as db:
                db.consult_string(TC)
                sub = db.subscribe("?- path(X, Y).")
                assert len(sub.view()) == 6
                db.insert("edge", 4, 5)
                kind, deltas = sub.poll(timeout=5.0)
                assert kind == "deltas"
                assert sorted(v for s, v in deltas) == [
                    (1, 5), (2, 5), (3, 5), (4, 5),
                ]
                assert all(s == 1 for s, _ in deltas)
                assert len(sub.view()) == 10
                sub.close()
                assert sub.poll()[0] == "closed"

    def test_wire_refusal_raises_subscription_error(self):
        with _boot_server() as server:
            host, port = server.address
            with RemoteSession(host, port) as db:
                db.consult_string(
                    "e(1, 2).\nmodule m.\nexport ok(ff).\n"
                    "ok(X, Y) :- e(X, Y), not e(Y, X).\nend_module."
                )
                with pytest.raises(SubscriptionError, match="negation"):
                    db.subscribe("?- ok(X, Y).")

    def test_stalled_subscriber_does_not_block_writers(self):
        """A subscriber that never polls fills its bounded queue; writers
        keep committing at full speed and the subscriber resnapshots."""
        with _boot_server(live_queue=8) as server:
            host, port = server.address
            with RemoteSession(host, port) as db:
                db.consult_string("edge(0, 0).")
                sub = db.subscribe("?- edge(X, Y).")
                start = time.monotonic()
                for i in range(1, 41):
                    assert db.insert("edge", i, i)
                elapsed = time.monotonic() - start
                # 40 committed writes against a stalled subscriber must not
                # take anywhere near a blocking path's worth of time
                assert elapsed < 5.0
                kind, payload = sub.poll(timeout=5.0)
                assert kind == "resnapshot"
                assert len(payload) == 41
                assert sub.view() == payload
                # the stream continues cleanly after the resnapshot
                db.insert("edge", 99, 99)
                kind, deltas = sub.poll(timeout=5.0)
                assert kind == "deltas" and deltas == [(1, (99, 99))]
                stats = db.stats()["live"]
                assert stats["resnapshots"] == 1
                assert stats["drops"] > 0

    def test_client_death_reclaims_subscription(self):
        with _boot_server() as server:
            host, port = server.address
            with RemoteSession(host, port) as db:
                db.consult_string(TC)
                other = RemoteSession(host, port)
                sub = other.subscribe("?- path(X, Y).")
                assert db.stats()["live"]["subscriptions"] == 1
                # sever the subscription's dedicated socket without
                # UNSUBSCRIBE/BYE — an abrupt client death
                sub._link.sock.close()
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if db.stats()["live"]["subscriptions"] == 0:
                        break
                    time.sleep(0.05)
                assert db.stats()["live"]["subscriptions"] == 0
                # the database is still healthy for everyone else
                assert db.insert("edge", 4, 5)

    def test_replica_streams_replicated_deltas(self):
        """A subscription on a read replica sees deltas for writes applied
        through the replication stream."""
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            primary = _boot_server(
                changelog=os.path.join(tmp, "primary.log")
            ).start()
            try:
                phost, pport = primary.address
                replica = CoralServer(
                    host="127.0.0.1",
                    port=0,
                    changelog=os.path.join(tmp, "replica.log"),
                    replicate_from=(phost, pport),
                ).start()
                try:
                    with RemoteSession(phost, pport) as writer:
                        writer.consult_string(TC)
                        rhost, rport = replica.address
                        deadline = time.monotonic() + 10.0
                        sub = None
                        with RemoteSession(rhost, rport) as reader:
                            while time.monotonic() < deadline:
                                try:
                                    sub = reader.subscribe("?- path(X, Y).")
                                    if len(sub.view()) == 6:
                                        break
                                    sub.close()
                                    sub = None
                                except Exception:
                                    pass
                                time.sleep(0.1)
                            assert sub is not None and len(sub.view()) == 6
                            writer.insert("edge", 4, 5)
                            got = []
                            deadline = time.monotonic() + 10.0
                            while (
                                len(got) < 4 and time.monotonic() < deadline
                            ):
                                kind, payload = sub.poll(timeout=1.0)
                                if kind == "deltas":
                                    got.extend(payload)
                            assert sorted(v for _, v in got) == [
                                (1, 5), (2, 5), (3, 5), (4, 5),
                            ]
                finally:
                    replica.shutdown()
            finally:
                primary.shutdown()


_KILLED_SUBSCRIBER = textwrap.dedent(
    """
    import sys, time
    sys.path.insert(0, {src!r})
    from repro.client import RemoteSession
    db = RemoteSession({host!r}, {port})
    sub = db.subscribe("?- path(X, Y).")
    print("SUBSCRIBED", len(sub.view()), flush=True)
    while True:
        sub.poll(timeout=1.0)
    """
)


class TestSubscriberChaos:
    def test_sigkill_mid_stream_leaves_server_healthy(self):
        """SIGKILL a subscriber process mid-stream: the server reclaims its
        subscription and keeps serving writers and other subscribers."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        with _boot_server(idle_timeout=2.0) as server:
            host, port = server.address
            with RemoteSession(host, port) as db:
                db.consult_string(TC)
                survivor = db.subscribe("?- path(X, Y).")
                proc = subprocess.Popen(
                    [
                        sys.executable,
                        "-c",
                        _KILLED_SUBSCRIBER.format(
                            src=os.path.abspath(src), host=host, port=port
                        ),
                    ],
                    stdout=subprocess.PIPE,
                )
                try:
                    line = proc.stdout.readline().decode()
                    assert line.startswith("SUBSCRIBED"), line
                    assert db.stats()["live"]["subscriptions"] == 2
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.wait(timeout=10)
                finally:
                    if proc.poll() is None:
                        proc.kill()
                # writers keep committing and the survivor keeps streaming
                assert db.insert("edge", 4, 5)
                kind, deltas = survivor.poll(timeout=5.0)
                assert kind == "deltas" and len(deltas) == 4
                # the dead client's subscription is reclaimed (its socket
                # dies at the next DELTA wait or the idle reaper)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if db.stats()["live"]["subscriptions"] == 1:
                        break
                    time.sleep(0.1)
                assert db.stats()["live"]["subscriptions"] == 1
