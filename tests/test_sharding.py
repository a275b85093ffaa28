"""Sharding tests: hash ring, shard map, router, scatter-gather, chaos.

The acceptance bar from the sharding issue: an *unmodified*
``RemoteSession`` works against the router exactly as against a single
server; partitioned relations scatter on write and gather on read with
per-upstream backpressure; a client that dies mid-scatter-gather leaks
no cursors on any worker; and a SIGKILLed worker is restarted by the
supervisor while clients ride out the window on retriable errors.
"""

import hashlib
import socket
import time
import urllib.request

import pytest

from repro import Session
from repro.client import RemoteSession
from repro.errors import (
    FailoverError,
    ProtocolError,
    ReadOnlyError,
    ShardRoutingError,
    WorkerRestartingError,
)
from repro.faults import FaultInjector
from repro.server import CoralServer, PROTOCOL_VERSION
from repro.server.protocol import read_frame, write_frame
from repro.sharding import (
    HashRing,
    ShardMap,
    ShardRouter,
    WorkerPool,
    partition_key,
    stable_hash,
)
from repro.shell.repl import Shell

from .prom_parser import parse_and_validate

CHAIN = 10


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


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class _Fleet:
    """N in-process CoralServers behind a static WorkerPool + ShardRouter."""

    def __init__(self, count, shard_map=None, heartbeat=0.1, **router_kw):
        self.sessions = [Session() for _ in range(count)]
        self.servers = [
            CoralServer(session, port=0).start() for session in self.sessions
        ]
        self.pool = WorkerPool(
            count,
            endpoints=[server.address for server in self.servers],
            heartbeat=heartbeat,
        ).start()
        self.router = ShardRouter(
            self.pool, port=0, shard_map=shard_map, **router_kw
        ).start()

    def close(self):
        self.router.shutdown()
        self.pool.stop()
        for server in self.servers:
            server.shutdown()
        for session in self.sessions:
            session.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _raw_client(address):
    sock = socket.create_connection(address, timeout=10.0)
    write_frame(sock, {"op": "HELLO", "version": PROTOCOL_VERSION})
    header, _ = read_frame(sock)
    assert header["ok"], header
    return sock


# ---------------------------------------------------------------------------
# hash ring + shard map
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_stable_hash_is_blake2b_not_salted_hash(self):
        # must survive interpreter restarts: pinned to the blake2b digest,
        # never Python's per-process salted hash()
        digest = hashlib.blake2b(b"edge", digest_size=8).digest()
        assert stable_hash("edge") == int.from_bytes(digest, "big")

    def test_owner_is_deterministic_across_instances(self):
        keys = [f"pred{i}" for i in range(200)]
        one, two = HashRing(4), HashRing(4)
        assert [one.owner(k) for k in keys] == [two.owner(k) for k in keys]
        assert all(0 <= one.owner(k) < 4 for k in keys)

    def test_spread_covers_every_worker(self):
        spread = HashRing(4).spread(f"key{i}" for i in range(1000))
        assert set(spread) == {0, 1, 2, 3}
        # vnodes keep the imbalance moderate: no shard is empty or hoards
        assert min(spread.values()) > 100

    def test_growing_the_ring_moves_only_a_fraction(self):
        keys = [f"key{i}" for i in range(1000)]
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(1 for k in keys if before.owner(k) != after.owner(k))
        # consistent hashing: ~1/5 of keys move, never a wholesale reshuffle
        assert moved < 450

    def test_partition_key_joins_term_strings(self):
        assert partition_key([1, "a"]) == "1\x1fa"


class TestShardMap:
    def test_parse_pins_partitions_and_comments(self):
        mapping = ShardMap.parse(
            """
            # routing overrides
            tc = 2
            edge = *
            """,
            workers=4,
        )
        assert mapping.owner("tc") == 2
        assert mapping.is_partitioned("edge")
        assert not mapping.is_partitioned("tc")

    def test_unpinned_names_fall_back_to_the_ring(self):
        mapping = ShardMap(4)
        assert mapping.owner("whatever") == HashRing(4).owner("whatever")

    def test_owner_of_partitioned_name_is_refused(self):
        mapping = ShardMap(2, partitioned={"edge"})
        with pytest.raises(ShardRoutingError):
            mapping.owner("edge")

    def test_tuple_owner_spreads_and_is_deterministic(self):
        mapping = ShardMap(3, partitioned={"edge"})
        owners = {
            mapping.tuple_owner("edge", partition_key((i, i + 1)))
            for i in range(60)
        }
        assert owners == {0, 1, 2}
        assert mapping.tuple_owner("edge", "1\x1f2") == mapping.tuple_owner(
            "edge", "1\x1f2"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "tc == 2",          # malformed
            "tc = two",         # not an index
            "tc = 7",           # pin out of range
            "tc = 1\ntc = *",   # duplicate name
        ],
    )
    def test_bad_lines_are_refused_with_line_numbers(self, text):
        with pytest.raises(ShardRoutingError):
            ShardMap.parse(text, workers=2)

    def test_load_accepts_none_dict_path_and_passthrough(self, tmp_path):
        assert ShardMap.load(None, 2).workers == 2
        from_dict = ShardMap.load({"tc": 1, "edge": "*"}, 2)
        assert from_dict.owner("tc") == 1 and from_dict.is_partitioned("edge")
        path = tmp_path / "shards.map"
        path.write_text("tc = 0\nedge = *\n")
        from_file = ShardMap.load(str(path), 2)
        assert from_file.owner("tc") == 0 and from_file.is_partitioned("edge")
        assert ShardMap.load(from_dict, 2) is from_dict


# ---------------------------------------------------------------------------
# routing through the router with an unmodified client
# ---------------------------------------------------------------------------


class TestRouterBasics:
    def test_unmodified_client_consults_and_queries(self):
        with _Fleet(3) as fleet:
            with RemoteSession(*fleet.router.address, batch_size=3) as db:
                assert db.server_info.startswith("repro.router/")
                db.consult_string(_tc_program())
                got = sorted(db.query("path(1, Y)").tuples())
                assert got == _expected_from(1)
                stats = db.stats()
                assert stats["role"] == "router"
                assert stats["sharding"]["workers"] == 3

    def test_consult_colocates_module_and_facts_on_one_worker(self):
        with _Fleet(3) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                db.consult_string(_tc_program())
            pins = fleet.router.learned_pins()
            assert "tc" in pins and "edge" in pins
            owners = {pins[name] for name in ("tc", "edge", "path")}
            assert len(owners) == 1  # co-located: the module sees its facts
            owner = owners.pop()
            for index, session in enumerate(fleet.sessions):
                count = len(session.query("edge(X, Y)").all())
                assert count == (CHAIN - 1 if index == owner else 0)

    def test_insert_then_query_sticks_to_one_worker(self):
        with _Fleet(3) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                assert db.insert("color", "red")
                assert db.insert("color", "blue")
                assert sorted(db.query("color(X)").tuples()) == [
                    ("blue",), ("red",)
                ]
                assert db.delete("color", "red")
                assert db.query("color(X)").all() != []
            populated = [
                s for s in fleet.sessions if s.query("color(X)").all()
            ]
            assert len(populated) == 1

    def test_straddling_consult_is_refused(self):
        # a and b are pinned to different workers; one program cannot
        # consult facts for both (it would straddle two sessions)
        with _Fleet(2, shard_map={"a": 0, "b": 1}) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                with pytest.raises(ShardRoutingError):
                    db.consult_string("a(1). b(2).")

    def test_module_over_partitioned_relation_is_refused(self):
        # a module evaluates on ONE worker; letting it read a partitioned
        # relation would silently answer from a single shard's facts
        with _Fleet(2, shard_map={"edge": "*"}) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                with pytest.raises(ShardRoutingError):
                    db.consult_string(_tc_program())

    def test_replication_ops_are_refused_at_the_router(self):
        with _Fleet(2) as fleet:
            sock = _raw_client(fleet.router.address)
            try:
                write_frame(sock, {"op": "REPL_HELLO", "from_seq": 0})
                header, _ = read_frame(sock)
                assert not header["ok"]
                assert header["error"] == "ProtocolError"
            finally:
                sock.close()

    def test_worker_hello_marks_a_server_as_shard_worker(self):
        with CoralServer(Session(), port=0) as server:
            sock = _raw_client(server.address)
            try:
                write_frame(
                    sock,
                    {"op": "WORKER_HELLO", "worker": 3, "router": "router"},
                )
                header, _ = read_frame(sock)
                assert header["ok"] and header["worker"] == 3
                assert header["pid"] > 0
                assert server.stats()["worker"]["index"] == 3
                write_frame(sock, {"op": "WORKER_HELLO", "worker": -1})
                header, _ = read_frame(sock)
                assert not header["ok"]
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# partitioned relations: scatter on write, gather on read
# ---------------------------------------------------------------------------

EDGES = 60


class TestScatterGather:
    def _load(self, db):
        for i in range(EDGES):
            assert db.insert("edge", i, i + 1)

    def test_partitioned_insert_spreads_and_gather_reads_all(self):
        with _Fleet(3, shard_map={"edge": "*"}) as fleet:
            with RemoteSession(*fleet.router.address, batch_size=7) as db:
                self._load(db)
                counts = [
                    len(s.query("edge(X, Y)").all()) for s in fleet.sessions
                ]
                assert sum(counts) == EDGES
                assert all(count > 0 for count in counts)  # truly spread
                got = sorted(db.query("edge(X, Y)").tuples())
                assert got == [(i, i + 1) for i in range(EDGES)]
                # delete routes to the owning shard by tuple
                assert db.delete("edge", 0, 1)
                assert len(db.query("edge(X, Y)").all()) == EDGES - 1
            assert fleet.router.open_cursors() == 0
            assert all(s.open_cursors() == 0 for s in fleet.servers)

    def test_partitioned_consult_splits_facts_by_tuple(self):
        with _Fleet(3, shard_map={"edge": "*"}) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                facts = " ".join(f"edge({i}, {i + 1})." for i in range(30))
                db.consult_string(facts)
                counts = [
                    len(s.query("edge(X, Y)").all()) for s in fleet.sessions
                ]
                assert sum(counts) == 30 and all(c > 0 for c in counts)
                # consult placement agrees with INSERT placement: deleting
                # a consulted fact through the router must find its shard
                assert db.delete("edge", 0, 1)
                assert len(db.query("edge(X, Y)").all()) == 29

    def test_partitioned_consult_of_negative_and_quoted_values(self):
        """The router re-prints partitioned facts for the workers: a quoted
        string must re-parse as itself, and a routed query for a negative
        constant must find it."""
        with _Fleet(3, shard_map={"scratch": "*"}) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                db.consult_string(
                    'scratch(-1, "O\\"Brien"). scratch(2, "back\\\\slash").'
                )
                assert db.query("scratch(-1, Y)").tuples() == [
                    (-1, 'O"Brien')
                ]
                rows = db.query_values("scratch", None, "back\\slash").tuples()
                assert rows == [(2, "back\\slash")]
                assert len(db.query("scratch(X, Y)").all()) == 2

    def test_gather_has_per_upstream_backpressure(self):
        """A partial FETCH drains shards in order: pulling 5 rows from a
        3-way scatter touches only the first shard with answers."""
        with _Fleet(3, shard_map={"edge": "*"}) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                self._load(db)
            sent = [
                s.metrics.counter("server.answers.sent", "")
                for s in fleet.servers
            ]
            baseline = [c.value() for c in sent]
            sock = _raw_client(fleet.router.address)
            try:
                write_frame(sock, {"op": "QUERY", "query": "edge(X, Y)"})
                header, _ = read_frame(sock)
                assert header["ok"]
                cursor = header["cursor"]
                # the scatter opened one cursor on every worker...
                assert _wait_until(
                    lambda: sum(s.open_cursors() for s in fleet.servers) == 3
                )
                write_frame(sock, {"op": "FETCH", "cursor": cursor, "max": 5})
                header, _ = read_frame(sock)
                assert header["ok"] and header["count"] == 5
                assert not header["done"]
                # ...but a 5-row pull cost exactly 5 answers fleet-wide:
                # later shards did no work on this client's behalf
                pulled = [
                    c.value() - base for c, base in zip(sent, baseline)
                ]
                assert sum(pulled) == 5
                assert sorted(pulled) == [0, 0, 5]
            finally:
                sock.close()

    def test_abrupt_disconnect_mid_gather_reclaims_every_worker(self):
        """The issue's cursor-lifecycle bar: a client that dies without
        BYE mid-scatter-gather must leak no cursors on ANY worker."""
        with _Fleet(3, shard_map={"edge": "*"}) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                self._load(db)
            sock = _raw_client(fleet.router.address)
            write_frame(sock, {"op": "QUERY", "query": "edge(X, Y)"})
            header, _ = read_frame(sock)
            cursor = header["cursor"]
            write_frame(sock, {"op": "FETCH", "cursor": cursor, "max": 4})
            header, _ = read_frame(sock)
            assert header["count"] == 4 and not header["done"]
            assert sum(s.open_cursors() for s in fleet.servers) == 3
            sock.close()  # die mid-stream; no CLOSE_CURSOR, no BYE
            assert _wait_until(
                lambda: all(s.open_cursors() == 0 for s in fleet.servers)
            ), [s.open_cursors() for s in fleet.servers]
            assert _wait_until(lambda: fleet.router.open_cursors() == 0)
            # unaffected bystander: a fresh client still gets everything
            with RemoteSession(*fleet.router.address, batch_size=7) as db:
                assert len(db.query("edge(X, Y)").all()) == EDGES

    def test_explicit_close_reclaims_every_worker(self):
        with _Fleet(3, shard_map={"edge": "*"}) as fleet:
            with RemoteSession(*fleet.router.address, batch_size=4) as db:
                self._load(db)
                result = db.query("edge(X, Y)")
                assert result.get_next() is not None
                assert sum(s.open_cursors() for s in fleet.servers) == 3
                result.close()
                assert _wait_until(
                    lambda: all(s.open_cursors() == 0 for s in fleet.servers)
                )
                assert fleet.router.open_cursors() == 0


# ---------------------------------------------------------------------------
# worker failure: retriable errors, supervision, recovery
# ---------------------------------------------------------------------------


class TestWorkerFailure:
    def test_query_to_down_worker_raises_worker_restarting(self):
        with _Fleet(2, shard_map={"tc": 0, "edge": 0, "path": 0},
                    heartbeat=0.05) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                db.consult_string(_tc_program())
            fleet.servers[0].shutdown()
            assert _wait_until(
                lambda: fleet.pool.workers[0].state == "down"
            )
            with RemoteSession(
                *fleet.router.address, restart_retries=0
            ) as db:
                with pytest.raises(WorkerRestartingError):
                    db.query("path(1, Y)").all()

    def test_mid_stream_worker_death_is_a_failover_error(self):
        with _Fleet(2, shard_map={"tc": 0, "edge": 0, "path": 0}) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                db.consult_string(_tc_program())
            sock = _raw_client(fleet.router.address)
            try:
                write_frame(sock, {"op": "QUERY", "query": "path(X, Y)"})
                header, _ = read_frame(sock)
                cursor = header["cursor"]
                write_frame(sock, {"op": "FETCH", "cursor": cursor, "max": 2})
                header, _ = read_frame(sock)
                assert header["ok"] and not header["done"]
                fleet.servers[0].shutdown()  # cursor dies with the worker
                write_frame(sock, {"op": "FETCH", "cursor": cursor, "max": 2})
                header, _ = read_frame(sock)
                assert not header["ok"]
                assert header["error"] == "FailoverError"
                # the router connection survives: reissuing works once the
                # shard is back (here: still down, so restarting error)
                write_frame(sock, {"op": "STATS"})
                header, _ = read_frame(sock)
                assert header["ok"]
            finally:
                sock.close()

    def test_client_rides_out_a_worker_restart(self):
        """The satellite-2 contract: WorkerRestartingError is retried with
        bounded backoff on the SAME healthy connection, and the request
        succeeds once the supervisor brings the shard back."""
        with _Fleet(2, shard_map={"color": 0}, heartbeat=0.05) as fleet:
            host, port = fleet.servers[0].address
            fleet.servers[0].shutdown()
            assert _wait_until(lambda: fleet.pool.workers[0].state == "down")
            with RemoteSession(
                *fleet.router.address,
                restart_retries=30,
                backoff=0.05,
            ) as db:
                import threading

                def _revive():
                    time.sleep(0.3)
                    fleet.sessions.append(Session())
                    fleet.servers[0] = CoralServer(
                        fleet.sessions[-1], host=host, port=port
                    ).start()

                reviver = threading.Thread(target=_revive)
                reviver.start()
                try:
                    assert db.insert("color", "red")
                finally:
                    reviver.join()
                assert db.counters["retries"] > 0
                assert db.counters["failovers"] == 0
            # the supervisor observed the bounce: generation advanced
            assert fleet.pool.workers[0].generation >= 2

    def test_read_only_errors_are_not_retried(self):
        # the taxonomy matters: ReadOnlyError means "wrong role", and
        # burning the restart budget on it would just slow the caller down
        with CoralServer(Session(), port=0, role="replica") as server:
            with RemoteSession(*server.address) as db:
                with pytest.raises(ReadOnlyError):
                    db.insert("color", "red")
                assert db.counters["retries"] == 0

    def test_router_net_faults_drop_one_connection_only(self):
        # reuse the repro.faults net points at the ROUTER's boundary: a
        # torn read kills that client's connection, nobody else's
        faults = FaultInjector().fail_at("net.read", hit=2)
        with _Fleet(2, faults=faults) as fleet:
            sock = _raw_client(fleet.router.address)  # read #1: HELLO
            try:
                write_frame(sock, {"op": "STATS"})  # read #2: injected fail
                try:  # the router drops us without any response frame
                    frame = read_frame(sock)
                except (ConnectionError, OSError):
                    frame = None
                assert frame is None
            finally:
                sock.close()
            with RemoteSession(*fleet.router.address) as db:  # bystander
                assert db.stats()["role"] == "router"


# ---------------------------------------------------------------------------
# aggregation: STATS, /metrics, @workers
# ---------------------------------------------------------------------------


class TestAggregation:
    def test_stats_aggregates_per_worker_sections(self):
        with _Fleet(2) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                db.consult_string(_tc_program())
                db.query("path(1, Y)").all()
                stats = db.stats()
            assert stats["role"] == "router"
            sharding = stats["sharding"]
            assert sharding["workers_up"] == 2
            assert "tc" in sharding["learned_pins"]
            workers = stats["workers"]
            assert set(workers) == {"0", "1"}
            for entry in workers.values():
                assert entry["state"] == "up"
                assert "requests" in entry

    def test_metrics_exposition_carries_worker_labels(self):
        with _Fleet(2, telemetry_port=0) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                db.consult_string(_tc_program())
                db.query("path(1, Y)").all()
            fleet.pool.fetch_stats(timeout=5.0)  # cache worker snapshots
            host, port = fleet.router.telemetry_address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10.0
            ) as response:
                text = response.read().decode("utf-8")
            families = parse_and_validate(text)
            # the router's own counters...
            assert "coral_router_requests" in families
            # ...plus every worker's snapshot, distinguished by label
            labelled = {
                sample.labels["worker"]
                for family in families.values()
                for sample in family.samples
                if "worker" in sample.labels
            }
            assert {"0", "1"} <= labelled

    def test_shell_renders_worker_fleet_views(self):
        with _Fleet(2) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                db.consult_string(_tc_program())
                stats = db.stats()
            top = Shell._render_top(stats)
            assert "#0" in top and "#1" in top
            workers = Shell._render_workers(stats)
            assert "2 of 2 workers up" in workers
            assert "tc->" in workers


# ---------------------------------------------------------------------------
# chaos: real subprocesses, SIGKILL, supervised restart
# ---------------------------------------------------------------------------


class TestChaosSubprocess:
    def test_sigkill_worker_is_restarted_and_clients_recover(self, tmp_path):
        pool = WorkerPool(
            2,
            data_dir=str(tmp_path),
            heartbeat=0.1,
            backoff=0.1,
            backoff_cap=0.5,
        )
        pool.start()
        try:
            with ShardRouter(
                pool, port=0, shard_map={"edge": "*"}
            ) as router:
                with RemoteSession(
                    *router.address, restart_retries=60, backoff=0.05
                ) as db:
                    for i in range(20):
                        assert db.insert("edge", i, i + 1)
                    assert len(db.query("edge(X, Y)").all()) == 20

                    old_pid = pool.kill(0)
                    assert old_pid is not None
                    assert _wait_until(
                        lambda: pool.workers[0].state == "up"
                        and pool.workers[0].pid != old_pid,
                        timeout=30.0,
                    ), pool.describe()
                    assert pool.workers[0].restarts >= 1

                    # the restarted worker lost its in-memory shard, but
                    # the fleet serves: writes land, reads gather, and the
                    # surviving shard's rows are all still there
                    assert db.insert("edge", 100, 101)
                    rows = db.query("edge(X, Y)").tuples()
                    assert (100, 101) in rows
                    survivors = [row for row in rows if row != (100, 101)]
                    assert 0 < len(survivors) < 20

                    stats = db.stats()
                    assert stats["workers"]["0"]["restarts"] >= 1
        finally:
            pool.stop()
