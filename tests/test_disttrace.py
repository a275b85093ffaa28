"""Distributed tracing tests: wire context, head sampling, span buffers,
cross-process trace assembly, and the tagged-diagnostics integrations.

The assembly tests exercise the robustness contract stated on
:class:`repro.obs.disttrace.TraceCollector`: out-of-order arrival, clock
skew across processes (ordering comes from parent links, never from
comparing timestamps between clocks), duplicate span ids (first write
wins) and missing hops (partial traces still render and export).

The golden-schema validator lives in ``tests/trace_schema.py`` (shared
with the CI trace-smoke job, which checks a *live* cluster's assembled
trace against the same schema), so it validates structure, not span names.
"""

import json
import os
import socket
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro import Session
from repro.client import RemoteSession
from repro.errors import ProtocolError
from repro.obs.disttrace import (
    HeadSampler,
    SpanBuffer,
    TraceCollector,
    TraceContext,
)
from repro.obs.metrics import LabelCapper, MetricError, MetricsRegistry
from repro.server import CoralServer, PROTOCOL_VERSION
from repro.server.protocol import read_frame, write_frame
from repro.sharding import ShardRouter, WorkerPool
from repro.shell.repl import Shell

from .trace_schema import validate_chrome_trace

TC_PROGRAM = """
    edge(1, 2). edge(2, 3). edge(3, 4).

    module tc.
    export path(bf, ff).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    end_module.
"""

TRACE_A = "aa" * 16
TRACE_B = "bb" * 16


def _span(sid, parent, name, process, ts, dur=None, conn=None,
          trace=TRACE_A, **args):
    span = {
        "trace": trace,
        "id": sid,
        "parent": parent,
        "name": name,
        "process": process,
        "os_pid": 4242,
        "ts": ts,
    }
    if dur is not None:
        span["dur"] = dur
    if conn is not None:
        span["conn"] = conn
    if args:
        span["args"] = args
    return span


def _raw_client(address):
    sock = socket.create_connection(address, timeout=10.0)
    write_frame(sock, {"op": "HELLO", "version": PROTOCOL_VERSION})
    header, _ = read_frame(sock)
    assert header["ok"], header
    return sock


# ---------------------------------------------------------------------------
# trace context: the wire format
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_wire_roundtrip(self):
        ctx = TraceContext.mint(sampled=True)
        wire = ctx.to_wire()
        assert wire == f"00-{ctx.trace_id}-{ctx.span_id}-01"
        back = TraceContext.from_wire(wire)
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id
        assert back.sampled is True

    def test_unsampled_flag_roundtrip(self):
        ctx = TraceContext.mint(sampled=False)
        assert ctx.to_wire().endswith("-00")
        assert TraceContext.from_wire(ctx.to_wire()).sampled is False

    def test_mint_is_unique(self):
        a, b = TraceContext.mint(), TraceContext.mint()
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id

    def test_child_shares_trace_and_links_parent(self):
        root = TraceContext.mint(sampled=True)
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        assert child.parent_id == root.span_id
        assert child.sampled is True
        assert root.parent_id is None

    def test_child_inherits_unsampled(self):
        assert TraceContext.mint(sampled=False).child().sampled is False

    def test_sampled_is_mutable_for_slowlog_force(self):
        ctx = TraceContext.mint(sampled=False)
        ctx.sampled = True
        assert TraceContext.from_wire(ctx.to_wire()).sampled is True

    @pytest.mark.parametrize(
        "value",
        [
            None,
            1234,
            "",
            "not-a-trace",
            "00-abc-def-01",                              # wrong widths
            f"00-{TRACE_A}-0123456789abcdef",             # 3 parts
            f"zz-{TRACE_A}-0123456789abcdef-01",          # bad version hex
            f"00-{'g' * 32}-0123456789abcdef-01",         # bad trace hex
            f"00-{TRACE_A}-xyzxyzxyzxyzxyzx-01",          # bad span hex
            f"00-{TRACE_A}-0123456789abcdef-q1",          # bad flags hex
            f"00-{'0' * 32}-0123456789abcdef-01",         # all-zero trace id
            f"00-{TRACE_A}-{'0' * 16}-01",                # all-zero span id
        ],
    )
    def test_malformed_wire_values_parse_to_none(self, value):
        assert TraceContext.from_wire(value) is None


class TestHeadSampler:
    def test_rate_zero_never_samples(self):
        sampler = HeadSampler(0.0)
        assert not any(sampler.decide() for _ in range(100))

    def test_rate_one_always_samples(self):
        sampler = HeadSampler(1.0)
        assert all(sampler.decide() for _ in range(100))

    def test_fractional_rate_is_exact_over_a_window(self):
        sampler = HeadSampler(0.25)
        assert sum(sampler.decide() for _ in range(100)) == 25

    @pytest.mark.parametrize("rate", [-0.1, 1.5, 2])
    def test_out_of_range_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sample rate"):
            HeadSampler(rate)


# ---------------------------------------------------------------------------
# span buffer: bounded, drained to JSONL
# ---------------------------------------------------------------------------


class TestSpanBuffer:
    def test_records_sampled_spans_with_links(self):
        buf = SpanBuffer("worker-0")
        ctx = TraceContext.mint(sampled=True).child()
        span = buf.record(ctx, "request.QUERY", 10.0, 10.5, conn=7, rows=3)
        assert span["trace"] == ctx.trace_id
        assert span["id"] == ctx.span_id
        assert span["parent"] == ctx.parent_id
        assert span["process"] == "worker-0"
        assert span["dur"] == pytest.approx(0.5)
        assert span["conn"] == 7
        assert span["args"] == {"rows": 3}
        assert buf.recorded == 1 and len(buf) == 1

    def test_unsampled_context_records_nothing(self):
        buf = SpanBuffer("p")
        assert buf.record(TraceContext.mint(sampled=False), "x", 1.0, 2.0) is None
        assert len(buf) == 0 and buf.recorded == 0

    def test_instant_span_has_no_duration(self):
        buf = SpanBuffer("p")
        span = buf.record(TraceContext.mint(), "replica.apply", 3.0)
        assert "dur" not in span

    def test_cap_drops_and_counts(self):
        drops = []
        buf = SpanBuffer("p", limit=2, on_drop=lambda: drops.append(1))
        for _ in range(5):
            buf.record(TraceContext.mint(), "s", 1.0, 2.0)
        assert len(buf) == 2
        assert buf.dropped == 3
        assert len(drops) == 3

    def test_jsonl_drain_file(self, tmp_path):
        path = str(tmp_path / "spans" / "p.jsonl")
        buf = SpanBuffer("p", path=path)
        ctx = TraceContext.mint()
        buf.record(ctx, "a", 1.0, 2.0)
        buf.record(ctx.child(), "b", 2.0, 3.0)
        buf.close()
        buf.close()  # idempotent
        lines = [json.loads(l) for l in open(path)]
        assert [l["name"] for l in lines] == ["a", "b"]
        assert all(l["trace"] == ctx.trace_id for l in lines)

    def test_concurrent_records_keep_counts_and_drain_file_exact(self, tmp_path):
        """Handler threads share one buffer: past the cap the counts stay
        exact, and every span still reaches the drain file as one whole
        JSON line."""
        writers, per_writer, limit = 8, 200, 500
        path = str(tmp_path / "p.jsonl")
        buf = SpanBuffer("p", limit=limit, path=path)
        barrier = threading.Barrier(writers)

        def hammer(index):
            barrier.wait()
            for sequence in range(per_writer):
                buf.record(TraceContext.mint(), f"w{index}", 1.0, 2.0, seq=sequence)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        buf.close()
        total = writers * per_writer
        assert len(buf) == limit
        assert buf.recorded == total and buf.dropped == total - limit
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == total
        assert len({(l["name"], l["args"]["seq"]) for l in lines}) == total

    def test_spans_for_filters_by_trace(self):
        buf = SpanBuffer("p")
        kept = TraceContext.mint()
        buf.record(kept, "keep", 1.0, 2.0)
        buf.record(TraceContext.mint(), "other", 1.0, 2.0)
        found = buf.spans_for(kept.trace_id)
        assert [s["name"] for s in found] == ["keep"]
        assert len(buf.snapshot()) == 2


# ---------------------------------------------------------------------------
# collector: the robustness contract (satellite: assembly tests)
# ---------------------------------------------------------------------------


class TestTraceCollector:
    def test_out_of_order_arrival_still_nests(self):
        # the worker's span arrives before the router's, the router's
        # before the client's: assembly must not care
        collector = TraceCollector()
        collector.add_span(_span("c" * 16, "b" * 16, "worker.eval", "worker-0", 3.0, 0.1))
        collector.add_span(_span("b" * 16, "a" * 16, "router.forward", "router", 2.0, 0.2))
        collector.add_span(_span("a" * 16, None, "client.query", "client", 1.0, 0.3))
        tree = collector.tree(TRACE_A)
        lines = tree.splitlines()
        assert lines[1].startswith("- client.query")
        assert lines[2].startswith("  - router.forward")
        assert lines[3].startswith("    - worker.eval")

    def test_clock_skew_ordering_comes_from_parent_links(self):
        # the worker's clock runs 500s *behind* the router's: its child
        # span's timestamp precedes its parent's.  Timestamp ordering would
        # invert the tree; parent-link ordering must not.
        collector = TraceCollector()
        collector.add_span(_span("a" * 16, None, "router.request", "router", 1000.0, 0.5))
        collector.add_span(_span("b" * 16, "a" * 16, "worker.eval", "worker-0", 500.0, 0.1))
        lines = collector.tree(TRACE_A).splitlines()
        assert lines[1].startswith("- router.request")
        assert lines[2].startswith("  - worker.eval")
        # same contract in the Chrome export: depth follows links
        assembled = collector.assemble(TRACE_A)
        depths = {
            e["args"]["span"]: e["args"]["depth"]
            for e in assembled["traceEvents"]
            if e["ph"] != "M"
        }
        assert depths == {"a" * 16: 0, "b" * 16: 1}

    def test_same_process_siblings_order_by_time(self):
        # within ONE process the clock is self-consistent, so sibling
        # fetches recorded there keep their true order even when added
        # backwards
        collector = TraceCollector()
        collector.add_span(_span("a" * 16, None, "root", "client", 1.0, 9.0))
        collector.add_span(_span("c" * 16, "a" * 16, "fetch.2", "client", 3.0, 0.1))
        collector.add_span(_span("b" * 16, "a" * 16, "fetch.1", "client", 2.0, 0.1))
        lines = collector.tree(TRACE_A).splitlines()
        assert lines[2].startswith("  - fetch.1")
        assert lines[3].startswith("  - fetch.2")

    def test_duplicate_span_ids_first_write_wins(self):
        collector = TraceCollector()
        first = _span("a" * 16, None, "original", "router", 1.0, 0.5)
        dupe = _span("a" * 16, None, "impostor", "router", 9.0, 0.5)
        assert collector.add_span(first)
        assert not collector.add_span(dupe)
        assert collector.duplicates == 1
        spans = collector.spans(TRACE_A)
        assert len(spans) == 1 and spans[0]["name"] == "original"
        assert collector.assemble(TRACE_A)["otherData"]["duplicate_spans"] == 1

    def test_missing_hop_renders_partial_trace(self):
        # the router hop never reported (killed mid-query): the client root
        # and the worker orphan must both still render and export
        collector = TraceCollector()
        collector.add_span(_span("a" * 16, None, "client.query", "client", 1.0, 0.5))
        collector.add_span(_span("c" * 16, "9" * 16, "worker.eval", "worker-0", 2.0, 0.1))
        tree = collector.tree(TRACE_A)
        assert "- client.query" in tree
        assert "- worker.eval [worker-0] 100.00ms (orphaned: parent hop missing)" in tree
        assembled = collector.assemble(TRACE_A)
        exported = {
            e["args"]["span"]
            for e in assembled["traceEvents"]
            if e["ph"] != "M"
        }
        assert exported == {"a" * 16, "c" * 16}
        validate_chrome_trace(assembled)

    def test_torn_jsonl_line_counts_as_malformed(self, tmp_path):
        path = tmp_path / "p.jsonl"
        good = json.dumps(_span("a" * 16, None, "ok", "p", 1.0, 0.1))
        path.write_text(good + '\n{"trace": "' + TRACE_A + '", "id": "tr\n')
        collector = TraceCollector()
        assert collector.load(str(path)) == 1
        assert collector.malformed == 1
        assert collector.assemble(TRACE_A)["otherData"]["malformed_spans"] == 1

    def test_span_without_ids_is_malformed(self):
        collector = TraceCollector()
        assert not collector.add_span({"name": "no ids"})
        assert not collector.add_span({"trace": TRACE_A, "id": 7})
        assert collector.malformed == 2

    def test_load_dir_merges_and_dedupes(self, tmp_path):
        shared = _span("a" * 16, None, "root", "router", 1.0, 0.5)
        (tmp_path / "router.jsonl").write_text(json.dumps(shared) + "\n")
        (tmp_path / "worker-0.jsonl").write_text(
            json.dumps(shared)  # workers sharing a span dir re-report it
            + "\n"
            + json.dumps(_span("b" * 16, "a" * 16, "eval", "worker-0", 2.0, 0.1))
            + "\n"
            + json.dumps(_span("e" * 16, None, "other", "worker-0", 1.0,
                               trace=TRACE_B))
            + "\n"
        )
        (tmp_path / "notes.txt").write_text("ignored\n")
        collector = TraceCollector()
        assert collector.load_dir(str(tmp_path)) == 3
        assert collector.duplicates == 1
        assert collector.trace_ids() == [TRACE_A, TRACE_B]
        assert collector.processes(TRACE_A) == ["router", "worker-0"]


class TestChromeTraceGolden:
    def _synthetic(self):
        collector = TraceCollector()
        collector.add_spans(
            [
                _span("a" * 16, None, "client.query", "client", 100.0, 0.9,
                      conn=None, query="edge(X, Y)"),
                _span("b" * 16, "a" * 16, "request.QUERY", "router", 100.1,
                      0.8, conn=3),
                _span("c" * 16, "b" * 16, "router.forward.QUERY", "router",
                      100.2, 0.3, conn=3, worker=0),
                _span("d" * 16, "b" * 16, "router.forward.QUERY", "router",
                      100.2, 0.4, conn=3, worker=1),
                _span("e" * 16, "c" * 16, "request.QUERY", "worker-0", 0.5,
                      0.2, conn=1),
                _span("f" * 16, "d" * 16, "request.QUERY", "worker-1", 999.0,
                      0.2, conn=1),
                _span("1" * 16, "a" * 16, "replica.apply", "replica", 100.4),
            ]
        )
        return collector

    def test_assembled_trace_matches_golden_schema(self):
        collector = self._synthetic()
        assembled = collector.assemble(TRACE_A)
        validate_chrome_trace(assembled)
        other = assembled["otherData"]
        assert other["trace_id"] == TRACE_A
        assert other["processes"] == [
            "client", "replica", "router", "worker-0", "worker-1",
        ]
        # rebased to the earliest timestamp across all (skewed) clocks
        spans = [e for e in assembled["traceEvents"] if e["ph"] != "M"]
        assert min(e["ts"] for e in spans) == 0.0
        # one pid lane per process, stable across processes
        pids = {e["pid"] for e in spans}
        assert len(pids) == 5

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        collector = self._synthetic()
        out = str(tmp_path / "trace.json")
        collector.write_chrome_trace(TRACE_A, out)
        with open(out) as handle:
            validate_chrome_trace(json.load(handle))


# ---------------------------------------------------------------------------
# single server end-to-end: client <-> server under one trace id
# ---------------------------------------------------------------------------


class TestServerTracing:
    def test_sampled_query_links_client_and_server_spans(self):
        session = Session()
        session.consult_string(TC_PROGRAM)
        with CoralServer(session, port=0, process_name="server") as srv:
            with RemoteSession(
                *srv.address, trace_sample=1.0, process_name="client",
                batch_size=2,
            ) as db:
                result = db.query("path(1, X)")
                assert sorted(result.tuples()) == [(1, 2), (1, 3), (1, 4)]
                trace_id = result.trace_id
                assert trace_id and trace_id == db.last_trace_id
                spans = db.trace()
        by_id = {s["id"]: s for s in spans}
        assert all(s["trace"] == trace_id for s in spans)
        assert {s["process"] for s in spans} == {"client", "server"}
        names = sorted(s["name"] for s in spans)
        assert "client.query" in names
        assert "client.fetch" in names
        assert "request.QUERY" in names
        assert "request.FETCH" in names
        # the parent links stitch the hops: every server span's parent is a
        # client span, every client fetch's parent is the client root
        root = next(s for s in spans if s["name"] == "client.query")
        assert root["parent"] is None
        for span in spans:
            if span["process"] == "server":
                assert by_id[span["parent"]]["process"] == "client"
            elif span["name"] == "client.fetch":
                assert span["parent"] == root["id"]
        # and the collector renders it as one tree under the client root
        collector = TraceCollector()
        collector.add_spans(spans)
        tree = collector.tree(trace_id)
        assert tree.splitlines()[1].startswith("- client.query [client]")

    def test_unsampled_traffic_records_no_spans(self):
        session = Session()
        session.consult_string(TC_PROGRAM)
        with CoralServer(session, port=0) as srv:
            with RemoteSession(*srv.address) as db:
                db.query("path(1, X)").all()
                assert db.last_trace_id is None
                with pytest.raises(ProtocolError, match="no trace id"):
                    db.trace()
                assert len(db.spans) == 0
            assert len(srv.spans) == 0

    def test_unknown_trace_id_yields_empty_span_list(self):
        with CoralServer(Session(), port=0) as srv:
            with RemoteSession(*srv.address) as db:
                assert db.trace("f" * 32) == []

    def test_malformed_wire_trace_never_fails_the_request(self):
        session = Session()
        session.consult_string(TC_PROGRAM)
        with CoralServer(session, port=0) as srv:
            sock = _raw_client(srv.address)
            try:
                write_frame(
                    sock,
                    {"op": "QUERY", "query": "edge(X, Y)", "trace": "garbage"},
                )
                header, _ = read_frame(sock)
                assert header["ok"], header
                write_frame(
                    sock,
                    {"op": "QUERY", "query": "edge(X, Y)", "trace": 12345},
                )
                header, _ = read_frame(sock)
                assert header["ok"], header
            finally:
                sock.close()
            assert len(srv.spans) == 0  # malformed = absent, not sampled

    def test_slowlog_force_samples_and_tags_entries(self, tmp_path):
        # no client sampling at all: the tail-based escape hatch alone must
        # mint the trace, tag the slowlog entry, and record the server span
        session = Session()
        session.consult_string(TC_PROGRAM)
        slow = session.enable_slow_query_log(
            str(tmp_path / "slow.jsonl"), threshold=0.0
        )
        with CoralServer(session, port=0, process_name="server") as srv:
            with RemoteSession(*srv.address) as db:
                db.query("path(1, X)").all()
            entry = slow.last_entry
            assert entry is not None and slow.entries_written >= 1
            trace_id = entry.get("trace")
            assert isinstance(trace_id, str) and len(trace_id) == 32
            tagged = srv.spans.spans_for(trace_id)
            assert tagged, "forced-sampled request span missing"
            assert all(s["process"] == "server" for s in tagged)

    def test_span_dir_drains_for_offline_assembly(self, tmp_path):
        session = Session()
        session.consult_string(TC_PROGRAM)
        with CoralServer(
            session, port=0, process_name="server",
            span_dir=str(tmp_path), trace_sample=1.0,
        ) as srv:
            sock = _raw_client(srv.address)
            try:
                write_frame(sock, {"op": "QUERY", "query": "edge(X, Y)"})
                header, _ = read_frame(sock)
                assert header["ok"]
            finally:
                sock.close()
        collector = TraceCollector()
        assert collector.load_dir(str(tmp_path)) >= 1
        # the server-side sampler roots a trace per unsolicited request
        # (HELLO, QUERY, ...); the QUERY's is the one we care about
        queried = [
            s["trace"]
            for t in collector.trace_ids()
            for s in collector.spans(t)
            if s["name"] == "request.QUERY"
        ]
        assert len(queried) == 1
        assert collector.processes(queried[0]) == ["server"]

    def test_stats_surface_trace_counters(self):
        with CoralServer(
            Session(), port=0, process_name="server", trace_sample=0.5
        ) as srv:
            with RemoteSession(*srv.address) as db:
                db.insert("edge", 1, 2)
                stats = db.stats()
        trace = stats["trace"]
        assert trace["process"] == "server"
        assert trace["sample_rate"] == 0.5
        assert trace["spans_recorded"] >= 1  # the server-side head sampler
        assert trace["spans_dropped"] == 0

    def test_debug_trace_endpoint_serves_assembled_traces(self):
        session = Session()
        session.consult_string(TC_PROGRAM)
        with CoralServer(
            session, port=0, process_name="server", telemetry_port=0
        ) as srv:
            with RemoteSession(
                *srv.address, trace_sample=1.0, process_name="client"
            ) as db:
                db.query("path(1, X)").all()
                trace_id = db.last_trace_id
            base = srv.telemetry.url
            with urllib.request.urlopen(f"{base}/debug/trace/{trace_id}") as rsp:
                assert rsp.status == 200
                assembled = json.loads(rsp.read())
            validate_chrome_trace(assembled)
            assert assembled["otherData"]["trace_id"] == trace_id
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/debug/trace/{'f' * 32}")
            assert err.value.code == 404


# ---------------------------------------------------------------------------
# router fleet: one trace id across client, router, and every worker
# ---------------------------------------------------------------------------


class _TracedFleet:
    """Two in-process workers behind a sampling router, all named."""

    def __init__(self, count=2, shard_map=None, **router_kw):
        self.sessions = [Session() for _ in range(count)]
        self.servers = [
            CoralServer(
                session, port=0, process_name=f"worker-{index}"
            ).start()
            for index, session in enumerate(self.sessions)
        ]
        self.pool = WorkerPool(
            count,
            endpoints=[server.address for server in self.servers],
            heartbeat=0.1,
        ).start()
        self.router = ShardRouter(
            self.pool, port=0, shard_map=shard_map,
            process_name="router", **router_kw
        ).start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.router.shutdown()
        self.pool.stop()
        for server in self.servers:
            server.shutdown()
        for session in self.sessions:
            session.close()


class TestRouterTracing:
    def test_scatter_gather_spans_every_process(self):
        with _TracedFleet(2, shard_map={"edge": "*"}) as fleet:
            with RemoteSession(
                *fleet.router.address, trace_sample=1.0, process_name="client"
            ) as db:
                for i in range(20):
                    assert db.insert("edge", i, i + 1)
                got = sorted(db.query("edge(X, Y)").tuples())
                assert got == [(i, i + 1) for i in range(20)]
                trace_id = db.last_trace_id
                spans = db.trace()
        assert spans and all(s["trace"] == trace_id for s in spans)
        processes = {s["process"] for s in spans}
        # the acceptance bar: one trace id covering >= 3 processes — the
        # client, the router, and every worker the scatter touched
        assert {"client", "router", "worker-0", "worker-1"} <= processes
        names = {s["name"] for s in spans}
        assert "client.query" in names
        assert "request.QUERY" in names
        assert "router.forward.QUERY" in names
        legs = [s for s in spans if s["name"] == "router.forward.QUERY"]
        assert {leg["args"]["worker"] for leg in legs} == {0, 1}
        # parent links survive the extra hop: worker request spans hang off
        # router forward legs, which hang off the router's request span
        by_id = {s["id"]: s for s in spans}
        for leg in legs:
            assert by_id[leg["parent"]]["process"] == "router"
        for span in spans:
            if span["process"].startswith("worker-"):
                assert by_id[span["parent"]]["process"] == "router"
        collector = TraceCollector()
        collector.add_spans(spans)
        validate_chrome_trace(collector.assemble(trace_id))

    def test_router_trace_gather_survives_unsampled_workers(self):
        # TRACE against a router with nothing recorded answers cleanly
        with _TracedFleet(2) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                assert db.trace("e" * 32) == []

    def test_router_stats_surface_trace_counters(self):
        with _TracedFleet(2, trace_sample=1.0) as fleet:
            with RemoteSession(*fleet.router.address) as db:
                db.insert("edge", 1, 2)
                stats = db.stats()
        trace = stats["trace"]
        assert trace["process"] == "router"
        assert trace["sample_rate"] == 1.0
        assert trace["spans_recorded"] >= 1


# ---------------------------------------------------------------------------
# replication: a traced write ripples primary -> replica under one trace id
# ---------------------------------------------------------------------------


def _wait_until(predicate, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestReplicationTracing:
    def test_ship_stream_carries_the_writers_trace(self):
        primary = CoralServer(
            Session(), port=0, changelog=True, heartbeat=0.05,
            process_name="primary",
        ).start()
        replica = CoralServer(
            Session(), port=0, role="replica",
            replicate_from=primary.address, replica_name="r1",
            heartbeat=0.05, process_name="replica",
        ).start()
        try:
            with RemoteSession(
                *primary.address, trace_sample=1.0, process_name="client"
            ) as db:
                assert db.insert("edge", 1, 2)
                trace_id = db.last_trace_id
            assert trace_id is not None
            assert _wait_until(
                lambda: replica.changelog.last_seq
                == primary.changelog.last_seq
            )
            assert _wait_until(
                lambda: bool(replica.spans.spans_for(trace_id))
            ), "replica recorded no span for the writer's trace"
            (applied,) = replica.spans.spans_for(trace_id)
            assert applied["name"] == "replica.apply"
            assert applied["process"] == "replica"
            # the apply hangs off the primary's request span by parent link
            request = [
                s
                for s in primary.spans.spans_for(trace_id)
                if s["name"] == "request.INSERT"
            ]
            assert request and applied["parent"] is not None
            collector = TraceCollector()
            collector.add_spans(primary.spans.spans_for(trace_id))
            collector.add_spans(replica.spans.spans_for(trace_id))
            assert set(collector.processes(trace_id)) >= {
                "primary", "replica",
            }
        finally:
            replica.shutdown()
            primary.shutdown()


# ---------------------------------------------------------------------------
# tagged diagnostics: capped label families, drop counters, @top rendering
# ---------------------------------------------------------------------------


class TestLabelCapper:
    def test_first_k_admitted_rest_collapse_to_other(self):
        capper = LabelCapper(
            MetricsRegistry().counter("x", "", ("who",)), k=2
        )
        capper.inc(1, "a")
        capper.inc(1, "b")
        capper.inc(1, "c")
        capper.inc(2, "a")
        capper.inc(1, "d")
        assert capper.counter.collect() == {
            ("a",): 3.0, ("b",): 1.0, ("other",): 2.0,
        }
        assert capper.overflowed == 2

    def test_cap_below_one_rejected(self):
        with pytest.raises(MetricError, match="label cap"):
            LabelCapper(MetricsRegistry().counter("x", ""), k=0)

    def test_server_client_label_family_is_capped(self, monkeypatch):
        import repro.server.core as core

        monkeypatch.setattr(core, "_LABEL_CAP", 1)
        session = Session()
        session.consult_string(TC_PROGRAM)
        with CoralServer(session, port=0) as srv:
            with RemoteSession(*srv.address) as db:
                db.query("edge(X, Y)").all()
                db.query("path(1, X)").all()
            preds = srv.metrics.collect()["server.query.predicates"]["values"]
        # first predicate admitted, the second collapsed into "other"
        assert set(preds) == {"edge/2", "other"}
        assert srv._m_query_preds.overflowed == 1

    def test_tracer_drops_surface_as_metric_and_stats(self, monkeypatch):
        monkeypatch.setattr("repro.server.core.TRACE_LIMIT", 1)
        session = Session()
        session.consult_string(TC_PROGRAM)
        with CoralServer(session, port=0, trace=True) as srv:
            with RemoteSession(*srv.address) as db:
                for _ in range(3):
                    db.query("edge(X, Y)").all()
        # read after shutdown: no handler threads left to race the counters
        assert srv.tracer.dropped > 0
        dropped = srv.metrics.collect()["obs.trace.dropped"]["values"]
        assert dropped.get("events") == srv.tracer.dropped
        assert srv.stats()["trace"]["events_dropped"] == srv.tracer.dropped

    def test_span_buffer_drops_surface_as_metric(self, monkeypatch):
        monkeypatch.setattr("repro.server.transport.SPAN_LIMIT", 1)
        with CoralServer(Session(), port=0, trace_sample=1.0) as srv:
            with RemoteSession(*srv.address) as db:
                db.insert("edge", 1, 2)
                db.insert("edge", 2, 3)
                db.insert("edge", 3, 4)
        assert srv.spans.dropped > 0
        dropped = srv.metrics.collect()["obs.trace.dropped"]["values"]
        assert dropped.get("spans") == srv.spans.dropped


class TestShellRendering:
    def test_top_shows_trace_row(self):
        stats = {
            "connections": {},
            "cursors": {},
            "trace": {
                "process": "server",
                "sample_rate": 0.25,
                "spans_recorded": 12,
                "spans_dropped": 3,
                "events_dropped": 0,
            },
        }
        text = Shell._render_top(stats)
        assert "trace: sample 0.25" in text
        assert "spans 12" in text
        assert "dropped 3 span(s)" in text

    def test_top_without_trace_section_unchanged(self):
        assert "trace:" not in Shell._render_top(
            {"connections": {}, "cursors": {}}
        )

    def test_shell_trace_command_renders_hop_tree(self):
        session = Session()
        session.consult_string(TC_PROGRAM)
        with CoralServer(session, port=0, process_name="server") as srv:
            shell = Shell()
            try:
                host, port = srv.address
                shell.execute(f"@connect {host}:{port} 1.0.")
                shell.execute("path(1, X)?")
                out = shell.execute("@trace.")
                assert out.startswith("trace ")
                assert "[server/" in out  # server spans carry the conn id
                assert "[shell]" in out
            finally:
                shell.execute("@disconnect.")
