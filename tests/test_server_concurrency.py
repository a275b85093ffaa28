"""Concurrency tests: many clients sharing one server.

The acceptance bar from the server subsystem issue: >= 8 concurrent
clients issuing overlapping transitive-closure queries (plus interleaved
updates) against one server get correct, complete answer sets; a client
that stops fetching causes no further evaluation work server-side; and a
client that dies mid-stream leaks no cursors.
"""

import socket
import threading
import time

import pytest

from repro import Session
from repro.client import RemoteSession
from repro.eval.limits import ResourceLimits
from repro.errors import ResourceLimitError
from repro.server import CoralServer, PROTOCOL_VERSION
from repro.server.protocol import read_frame, write_frame

CHAIN = 10  # path over a 10-node chain: 45 answers for path(X, Y)?


def _tc_program(chain=CHAIN):
    edges = " ".join(f"edge({i}, {i + 1})." for i in range(1, chain))
    return f"""
        {edges}

        module tc.
        export path(bf, ff).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        end_module.
    """


def _expected_from(start, chain=CHAIN):
    return sorted((start, y) for y in range(start + 1, chain + 1))


@pytest.fixture
def server():
    session = Session()
    session.consult_string(_tc_program())
    with CoralServer(session, port=0) as srv:
        yield srv


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestConcurrentClients:
    def test_eight_clients_overlapping_tc_queries(self, server):
        errors = []
        results = {}

        def worker(index):
            start = 1 + (index % 4)  # overlapping bound-first queries
            try:
                with RemoteSession(*server.address, batch_size=3) as db:
                    for _ in range(3):
                        answers = sorted(db.query(f"path({start}, Y)").tuples())
                        expected = _expected_from(start)
                        if answers != expected:
                            errors.append((index, answers, expected))
                    results[index] = True
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append((index, repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert len(results) == 8
        assert server.open_cursors() == 0

    def test_queries_with_interleaved_updates(self, server):
        """Writers hammer a scratch relation while readers drain TC
        queries; the TC answer sets must be unaffected and the scratch
        relation must net out exactly."""
        errors = []
        stop = threading.Event()

        def reader(index):
            try:
                with RemoteSession(*server.address, batch_size=4) as db:
                    while not stop.is_set():
                        got = sorted(db.query("path(1, Y)").tuples())
                        if got != _expected_from(1):
                            errors.append(("reader", index, got))
                            return
            except Exception as exc:  # noqa: BLE001
                errors.append(("reader", index, repr(exc)))

        def writer(index):
            try:
                with RemoteSession(*server.address) as db:
                    for round_no in range(25):
                        assert db.insert("scratch", index, round_no)
                        assert db.delete("scratch", index, round_no)
                    db.insert("scratch", index, "kept")
            except Exception as exc:  # noqa: BLE001
                errors.append(("writer", index, repr(exc)))

        readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        writers = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30)
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        assert not errors, errors
        with RemoteSession(*server.address) as db:
            kept = sorted(db.query("scratch(W, kept)").tuples())
            assert kept == [(w, "kept") for w in range(4)]
            assert db.stats()["cursors"]["open"] == 0

    def test_unfetched_batches_cause_no_server_work(self, server):
        """Backpressure: after the first FETCH, an idle client costs the
        server nothing — no pulls, no answers, no evaluation."""
        pulls = server.metrics.counter("server.cursor.pulls", "")
        answers = server.metrics.counter("server.answers.sent", "")
        with RemoteSession(*server.address, batch_size=2) as db:
            result = db.query("path(1, Y)")
            first = result.get_next()
            assert first is not None
            pulled_after_first_batch = pulls.value()
            sent_after_first_batch = answers.value()
            # exactly one batch was pulled (2 answers), not the full set
            assert pulled_after_first_batch == 2
            assert sent_after_first_batch == 2
            facts_before = server.session.stats.snapshot()["facts_inserted"]
            time.sleep(0.2)  # idle: server must do nothing on our behalf
            assert pulls.value() == pulled_after_first_batch
            assert answers.value() == sent_after_first_batch
            assert (
                server.session.stats.snapshot()["facts_inserted"]
                == facts_before
            )
            result.close()
        assert server.open_cursors() == 0

    def test_abrupt_disconnect_mid_stream_frees_cursors(self, server):
        """A client that dies without BYE (socket torn down mid-stream)
        must leak no cursors and must not affect other clients."""
        sock = socket.create_connection(server.address, timeout=5.0)
        write_frame(sock, {"op": "HELLO", "version": PROTOCOL_VERSION})
        read_frame(sock)
        write_frame(sock, {"op": "QUERY", "query": "path(1, Y)", "max": 2})
        header, _ = read_frame(sock)
        assert header["count"] == 2 and not header["done"]
        write_frame(sock, {"op": "FETCH", "cursor": header["cursor"], "max": 2})
        header, _ = read_frame(sock)
        assert header["count"] == 2 and not header["done"]
        assert server.open_cursors() == 1
        sock.close()  # die mid-stream, cursor still open server-side
        assert _wait_until(lambda: server.open_cursors() == 0)
        # an unrelated client is unaffected and sees zero open cursors
        with RemoteSession(*server.address) as db:
            assert sorted(db.query("path(1, Y)").tuples()) == _expected_from(1)
            assert db.stats()["cursors"]["open"] == 0

    def test_per_request_limits_bound_each_fetch(self):
        session = Session()
        session.consult_string(_tc_program(60))
        # path(1, Y) is bf: its factored evaluation derives a context fact
        # and an answer per reachable node, ~118 facts on a 60-chain, all
        # on the first pull — over the cap.  path(55, Y) derives ~10.
        limits = ResourceLimits(max_tuples=100)
        with CoralServer(session, port=0, limits=limits) as srv:
            with RemoteSession(*srv.address) as db:
                with pytest.raises(ResourceLimitError):
                    db.query("path(1, Y)").all()
                # the failed cursor was freed, and the session survives:
                # a small query still answers (its evaluation fits the cap)
                assert db.stats()["cursors"]["open"] == 0
                small = sorted(db.query("path(55, Y)").tuples())
                assert small == [(55, y) for y in range(56, 61)]

    def test_limits_are_per_fetch_not_per_cursor(self):
        """The cap bounds each FETCH request, not the cursor's lifetime:
        a lazily-evaluated (ff) query that derives far more facts in total
        than the cap still drains fine, because no single batch-sized pull
        exceeds it.  One slow-but-steady client is backpressure, not abuse."""
        session = Session()
        session.consult_string(_tc_program(40))
        limits = ResourceLimits(max_tuples=100)
        with CoralServer(session, port=0, limits=limits) as srv:
            with RemoteSession(*srv.address, batch_size=64) as db:
                answers = db.query("path(X, Y)").all()
                assert len(answers) == sum(range(1, 40))  # 780 in total

    def test_many_sequential_connections_do_not_leak(self, server):
        for _ in range(20):
            with RemoteSession(*server.address) as db:
                db.query("edge(1, X)").all()
        assert _wait_until(
            lambda: server.stats()["connections"]["active"] == 0
        )
        assert server.open_cursors() == 0
