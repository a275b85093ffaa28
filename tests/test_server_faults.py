"""Fault injection at the server's I/O boundaries (the ``net.*`` points)
plus server-side storage failures observed through the wire.

The contract under test: any single injected fault kills at most the one
connection it hits — the dropped client gets a clean
:class:`~repro.errors.ProtocolError` (never a hang, never garbage), its
cursors are freed, and the server keeps serving everyone else.
"""

import time

import pytest

from repro import Session
from repro.client import RemoteSession
from repro.errors import ProtocolError, StorageError
from repro.faults import FaultInjector, SimulatedCrash
from repro.server import CoralServer

TC_PROGRAM = """
    edge(1, 2). edge(2, 3). edge(3, 4).

    module tc.
    export path(bf, ff).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    end_module.
"""

EXPECTED_FROM_1 = [(1, 2), (1, 3), (1, 4)]


def _tc_server(faults=None):
    session = Session()
    session.consult_string(TC_PROGRAM)
    return CoralServer(session, port=0, faults=faults)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestNetFaults:
    def test_write_failure_mid_fetch_drops_only_that_client(self):
        # response writes on one connection: #1 HELLO, #2 QUERY (the first
        # two answers), #3 FETCH — the injected failure hits exactly the
        # first FETCH response
        faults = FaultInjector().fail_at("net.write", hit=3)
        with _tc_server(faults) as server:
            db = RemoteSession(*server.address, batch_size=2)
            result = db.query("path(1, Y)")
            assert result.get_next() is not None
            assert result.get_next() is not None
            with pytest.raises(ProtocolError, match="closed the connection"):
                result.get_next()
            # the dead connection's cursor was freed by the handler
            assert _wait_until(lambda: server.open_cursors() == 0)
            # the server itself is fine: a fresh client gets full answers
            with RemoteSession(*server.address) as db2:
                assert sorted(db2.query("path(1, Y)").tuples()) == EXPECTED_FROM_1
            assert server.metrics.counter(
                "server.errors", "", ("kind",)
            ).value("write") == 1

    def test_read_failure_mid_stream_frees_cursors(self):
        # request reads on one connection: #1 HELLO, #2 QUERY, #3 FETCH
        faults = FaultInjector().fail_at("net.read", hit=3)
        with _tc_server(faults) as server:
            db = RemoteSession(*server.address, batch_size=2)
            result = db.query("path(1, Y)")
            with pytest.raises(ProtocolError, match="closed the connection"):
                result.all()
            assert _wait_until(lambda: server.open_cursors() == 0)
            with RemoteSession(*server.address) as db2:
                assert sorted(db2.query("path(1, Y)").tuples()) == EXPECTED_FROM_1

    def test_accept_failure_refuses_one_connection_only(self):
        faults = FaultInjector().fail_at("net.accept", hit=1)
        with _tc_server(faults) as server:
            with pytest.raises(ProtocolError):
                RemoteSession(*server.address)
            # the schedule was one-shot: the very next connection succeeds
            with RemoteSession(*server.address) as db:
                assert sorted(db.query("path(1, Y)").tuples()) == EXPECTED_FROM_1
            assert _wait_until(
                lambda: server.stats()["connections"]["active"] == 0
            )

    def test_simulated_crash_in_handler_does_not_kill_the_server(self):
        """A SimulatedCrash must never be swallowed as a CoralError — it
        propagates out of the handler thread (dropping that connection)
        while the accept loop keeps serving."""
        faults = FaultInjector().crash_at("net.read", hit=2)
        with _tc_server(faults) as server:
            db = RemoteSession(*server.address)
            with pytest.raises(ProtocolError, match="closed the connection"):
                db.query("path(1, Y)")  # read #2: the injected crash
            assert _wait_until(
                lambda: server.metrics.counter(
                    "server.errors", "", ("kind",)
                ).value("unhandled") == 1
            )
            with RemoteSession(*server.address) as db2:
                assert sorted(db2.query("path(1, Y)").tuples()) == EXPECTED_FROM_1


class TestServerSideStorageFaults:
    def test_failed_write_surfaces_as_storage_error_and_server_survives(
        self, tmp_path
    ):
        """An I/O failure during a remote INSERT reaches the client as a
        StorageError; the connection and the server both stay up, and the
        retried insert (the schedule is one-shot) succeeds."""
        storage_faults = FaultInjector()
        session = Session()
        session.open_storage(str(tmp_path), faults=storage_faults)
        session.persistent_relation("kv", 2)
        storage_faults.fail_at(
            "disk.allocate",
            hit=storage_faults.counts.get("disk.allocate", 0) + 1,
        )
        with CoralServer(session, port=0) as server:
            with RemoteSession(*server.address) as db:
                with pytest.raises(StorageError):
                    db.insert("kv", 1, "a")
                # same connection, same server: the retry goes through
                assert db.insert("kv", 1, "a") is True
                assert sorted(db.query("kv(K, V)").tuples()) == [(1, "a")]
            assert _wait_until(
                lambda: server.stats()["connections"]["active"] == 0
            )
        session.close()
