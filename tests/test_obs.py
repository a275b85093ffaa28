"""The repro.obs subsystem: metrics registry, event tracer, query profiler,
the profiler-overhead guard, and the Chrome-trace golden schema."""

import json
import os
import statistics
import sys
import threading
import time

import pytest

from repro import Session
from repro.errors import CoralError
from repro.obs import (
    Counter,
    EventTracer,
    FlightRecorder,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    SIZE_BUCKETS,
    TelemetryServer,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

TC_MODULE = """
module tc.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""


def _chain_session(length):
    session = Session()
    facts = " ".join(f"edge({i}, {i + 1})." for i in range(1, length + 1))
    session.consult_string(facts + "\n" + TC_MODULE)
    return session


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_values(self):
        counter = Counter("apps", "rule applications", ("rule",))
        cell = counter.labels("r1")
        cell.inc()
        cell.inc(2)
        counter.inc(5, "r2")
        assert counter.value("r1") == 3
        assert counter.value("r2") == 5
        assert counter.value("never") == 0
        assert counter.collect() == {("r1",): 3, ("r2",): 5}

    def test_counter_rejects_decrease_and_bad_labels(self):
        counter = Counter("c", labelnames=("a",))
        with pytest.raises(MetricError):
            counter.inc(-1, "x")
        with pytest.raises(MetricError):
            counter.labels("x", "y")

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 3

    def test_histogram_fixed_buckets(self):
        histogram = Histogram("sizes", boundaries=SIZE_BUCKETS)
        for value in (0, 1, 2, 5, 100_000):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["boundaries"] == list(SIZE_BUCKETS)
        # 0 and 1 land in the first bucket (upper-inclusive edges),
        # 2 in (1, 4], 5 in (4, 16], 100000 in the implicit +inf bucket
        assert snap["bucket_counts"][0] == 2
        assert snap["bucket_counts"][1] == 1
        assert snap["bucket_counts"][2] == 1
        assert snap["bucket_counts"][-1] == 1
        assert snap["count"] == 5
        assert snap["sum"] == 100_008

    def test_histogram_rejects_unsorted_boundaries(self):
        with pytest.raises(MetricError):
            Histogram("bad", boundaries=(3, 1, 2))

    def test_registry_reuses_and_typechecks(self):
        registry = MetricsRegistry()
        first = registry.counter("x")
        assert registry.counter("x") is first
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_collect_schema(self):
        registry = MetricsRegistry()
        registry.counter("apps", "help text", ("rule",)).inc(2, "r1")
        out = registry.collect()
        assert out["apps"]["kind"] == "counter"
        assert out["apps"]["help"] == "help text"
        assert out["apps"]["labels"] == ["rule"]
        assert out["apps"]["values"] == {"r1": 2}
        json.dumps(out)  # must be JSON-safe as-is


class TestHistogramPercentiles:
    def test_uniform_distribution_interpolates_accurately(self):
        """1..1024 uniform: bucket interpolation should land on the exact
        quantiles because the distribution really is linear inside each
        power-of-four bucket."""
        histogram = Histogram("u", boundaries=SIZE_BUCKETS)
        for value in range(1, 1025):
            histogram.observe(value)
        assert histogram.percentile(0.50) == pytest.approx(512.0)
        assert histogram.percentile(0.99) == pytest.approx(1013.76)
        assert histogram.percentile(1.0) == pytest.approx(1024.0)

    def test_single_bucket_linear_interpolation(self):
        histogram = Histogram("s", boundaries=SIZE_BUCKETS)
        for _ in range(10):
            histogram.observe(3)  # all land in the (1, 4] bucket
        assert histogram.percentile(0.5) == pytest.approx(2.5)
        assert histogram.percentile(0.1) == pytest.approx(1.3)

    def test_overflow_bucket_clamps_to_last_boundary(self):
        histogram = Histogram("o", boundaries=(1.0, 2.0))
        histogram.observe(50.0)
        assert histogram.percentile(0.99) == 2.0

    def test_empty_or_unknown_series_is_zero(self):
        histogram = Histogram("e", labelnames=("op",))
        assert histogram.percentile(0.5, "never-observed") == 0.0

    def test_out_of_range_quantile_rejected(self):
        histogram = Histogram("q")
        with pytest.raises(MetricError):
            histogram.percentile(0.0)
        with pytest.raises(MetricError):
            histogram.percentile(1.5)

    def test_snapshot_carries_quantiles(self):
        histogram = Histogram("snap", boundaries=SIZE_BUCKETS)
        for value in range(1, 101):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["p50"] == histogram.percentile(0.50)
        assert snap["p90"] == histogram.percentile(0.90)
        assert snap["p99"] == histogram.percentile(0.99)
        assert snap["p50"] <= snap["p90"] <= snap["p99"]

    def test_labelled_series_are_independent(self):
        histogram = Histogram("l", labelnames=("op",), boundaries=(1, 2, 4))
        histogram.observe(1, "fast")
        histogram.observe(4, "slow")
        histogram.observe(4, "slow")
        assert histogram.percentile(0.5, "fast") <= 1.0
        assert histogram.percentile(0.5, "slow") > 2.0


class TestRegistryConflicts:
    def test_conflicting_labelnames_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c", labelnames=("a",))
        with pytest.raises(MetricError, match="labels"):
            registry.counter("c", labelnames=("b",))
        with pytest.raises(MetricError, match="labels"):
            registry.counter("c")  # no labels != ("a",)

    def test_conflicting_histogram_boundaries_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=(1.0, 2.0))
        with pytest.raises(MetricError, match="boundaries"):
            registry.histogram("h", boundaries=(1.0, 2.0, 3.0))

    def test_compatible_reregistration_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.histogram(
            "h", "help", labelnames=("op",), boundaries=(1.0, 2.0)
        )
        again = registry.histogram(
            "h", "help", labelnames=("op",), boundaries=(1.0, 2.0)
        )
        assert again is first

    def test_kind_conflict_rejected_both_ways(self):
        registry = MetricsRegistry()
        registry.gauge("g")
        with pytest.raises(MetricError, match="already registered"):
            registry.histogram("g")


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_complete_instant_and_span(self):
        tracer = EventTracer()
        start = tracer.now()
        tracer.complete("query", "eval", start, query="p/1")
        tracer.instant("disk.sync", "storage")
        with tracer.span("rewrite", "compile", module="m"):
            pass
        # events are (ph, ts, dur, name, cat, args) tuples
        assert [event[0] for event in tracer.events] == ["X", "i", "X"]
        assert tracer.events[0][5] == {"query": "p/1"}

    def test_limit_drops_but_counts(self):
        tracer = EventTracer(limit=2)
        for _ in range(5):
            tracer.instant("e", "t")
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert tracer.chrome_trace()["otherData"]["dropped_events"] == 3

    def test_chrome_trace_schema(self):
        tracer = EventTracer()
        first = tracer.now()
        tracer.complete("a", "eval", first)
        tracer.instant("b", "storage")
        trace = tracer.chrome_trace()
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        for event in events:
            assert set(event) >= {"name", "cat", "ph", "ts", "pid", "tid"}
            assert event["ts"] >= 0
        assert min(event["ts"] for event in events) == 0  # rebased
        assert "dur" in events[0] and events[0]["dur"] >= 0
        assert events[1]["s"] == "t"

    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer()
        tracer.complete("a", "eval", tracer.now(), k=1)
        tracer.instant("b", "storage")
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["name"] == "a" and lines[0]["args"] == {"k": 1}
        assert "dur_us" in lines[0] and "dur_us" not in lines[1]

    def test_concurrent_writers_keep_jsonl_valid(self, tmp_path):
        """8 threads hammering one tracer: the bound must hold exactly and
        every dumped line must be one valid JSON object (the lock covers
        check-then-append, so the limit cannot be overshot by a race)."""
        writers, per_writer, limit = 8, 500, 1000
        tracer = EventTracer(limit=limit)
        barrier = threading.Barrier(writers)

        def hammer(index):
            barrier.wait()
            for sequence in range(per_writer):
                tracer.instant(f"w{index}.{sequence}", "test", seq=sequence)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = writers * per_writer
        assert len(tracer) == limit
        assert tracer.dropped == total - limit
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == limit
        for line in lines:
            record = json.loads(line)  # raises on any interleaved write
            assert isinstance(record, dict)
            assert record["name"].startswith("w")

    def test_concurrent_writers_keep_flight_ring_valid(self):
        """Server handler threads write into the flight ring too: the same
        hammering must keep its counts exact, keep the newest events (each
        writer's retained events are a suffix of its own sequence), and
        keep every dumped line one valid JSON object."""
        writers, per_writer, capacity = 8, 500, 1000
        recorder = FlightRecorder(capacity=capacity)
        barrier = threading.Barrier(writers)

        def hammer(index):
            barrier.wait()
            for sequence in range(per_writer):
                recorder.event(f"w{index}", "test", seq=sequence)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving inside append
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = writers * per_writer
        assert len(recorder) == capacity
        assert recorder.recorded == total
        assert recorder.ring.dropped == total - capacity
        header, *lines = recorder.to_jsonl().splitlines()
        assert json.loads(header)["events"] == capacity
        kept = {}
        for line in lines:
            record = json.loads(line)  # raises on any interleaved write
            kept.setdefault(record["name"], []).append(record["args"]["seq"])
        for seqs in kept.values():
            assert seqs == list(range(per_writer - len(seqs), per_writer))

    def test_chrome_trace_while_writing(self):
        """Snapshots under concurrent appends must not crash or tear."""
        tracer = EventTracer(limit=10_000)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                tracer.instant("tick", "test")

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                trace = tracer.chrome_trace()
                for event in trace["traceEvents"]:
                    assert event["name"] == "tick"
        finally:
            stop.set()
            thread.join()


# ---------------------------------------------------------------------------
# profiler
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_profiled_query_counts_rules_and_iterations(self):
        session = _chain_session(6)
        with session.profile() as prof:
            answers = session.query("path(1, X)").all()
        profile = prof.profile
        assert len(answers) == 6
        assert profile.eval["rule_applications"] > 0
        assert profile.eval["facts_inserted"] > 0
        assert profile.iterations, "no fixpoint iterations recorded"
        assert sum(rule["applications"] for rule in profile.rules) == (
            profile.eval["rule_applications"]
        )
        derived = sum(rule["derived"] for rule in profile.rules)
        duplicates = sum(rule["duplicates"] for rule in profile.rules)
        # facts_inserted also counts magic seed facts inserted at module-call
        # setup (one per subgoal), which no rule application derives
        seeds = profile.eval["facts_inserted"] - derived
        assert 0 <= seeds <= profile.eval["subgoals"]
        assert duplicates == profile.eval["duplicates"]
        rendered = profile.render()
        for section in ("evaluation", "rules", "fixpoint iterations", "trace:"):
            assert section in rendered

    def test_profiler_uninstalls_cleanly(self):
        session = _chain_session(3)
        with session.profile():
            pass
        assert session.ctx.obs is None
        # a second profile on the same session must work
        with session.profile() as prof:
            session.query("path(1, X)").all()
        assert prof.profile is not None

    def test_profilers_do_not_nest(self):
        session = _chain_session(3)
        with session.profile():
            with pytest.raises(CoralError):
                with session.profile():
                    pass

    def test_uninstall_on_exception(self):
        session = _chain_session(3)
        with pytest.raises(RuntimeError):
            with session.profile():
                raise RuntimeError("boom")
        assert session.ctx.obs is None

    def test_trace_false_skips_tracer(self):
        session = _chain_session(3)
        with session.profile(trace=False) as prof:
            session.query("path(1, X)").all()
        assert prof.profile.tracer is None
        with pytest.raises(CoralError):
            prof.profile.chrome_trace()

    def test_pipelined_subgoals_recorded(self):
        session = Session()
        session.consult_string(
            """
            edge(1, 2). edge(2, 3).

            module pipe. @pipelining.
            export reach(bf).
            reach(X, Y) :- edge(X, Y).
            end_module.
            """
        )
        with session.profile() as prof:
            session.query("reach(1, X)").all()
        pipeline = prof.profile.subgoals["pipeline"]
        assert pipeline["reach/2"]["calls"] >= 1
        assert pipeline["edge/2"]["calls"] >= 1

    def test_ordered_search_reports_rules_iterations_and_scans(self):
        session = Session()
        session.consult_string(
            """
            edge(1, 2). edge(2, 3). edge(3, 1).

            module ring. @ordered_search.
            export path(bf).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            end_module.
            """
        )
        with session.profile() as prof:
            assert len(session.query("path(1, X)").all()) == 3
        profile = prof.profile
        # one row per rule; a run of a rule for a subgoal is an application
        by_body = {row["rule"].split(" :- ")[1]: row for row in profile.rules}
        assert by_body["edge(X, Y)."]["applications"] == 3  # once per subgoal
        assert by_body["edge(X, Z), path(Z, Y)."]["applications"] > 3
        assert sum(row["derived"] for row in profile.rules) == 9
        assert profile.eval["rule_applications"] == sum(
            row["applications"] for row in profile.rules
        )
        # every pass over the one SCC, rooted at path(1, _)
        assert profile.iteration_count == profile.eval["iterations"] > 1
        assert {row["scc"] for row in profile.iterations} == {"path/2"}
        assert sum(row["new_facts"] for row in profile.iterations) < 9
        assert profile.scans["path/2"]["matches"] > 0
        assert profile.scans["edge/2"]["scans"] > 0

    def test_storage_counters_and_fault_observer_restored(self, tmp_path):
        session = Session(data_directory=str(tmp_path), buffer_capacity=4)
        relation = session.persistent_relation("edge", 2)
        for i in range(1, 40):
            relation.insert_values(i, i + 1)
        session.consult_string(TC_MODULE)
        session.storage_pool.drop_all()
        injector = session._server.faults
        assert injector.observer is None
        with session.profile() as prof:
            session.query("path(30, X)").all()
        assert injector.observer is None  # restored on exit
        storage = prof.profile.storage
        assert storage["buffer"]["hits"] + storage["buffer"]["misses"] > 0
        assert storage["server"]["page_reads"] > 0  # pool was dropped cold
        assert prof.profile.buffer_hit_rate is not None
        assert "disk.read_page" in storage["fault_points"]
        # storage instants share the fault-injection vocabulary
        names = {event[3] for event in prof.profile.tracer.events}
        assert "disk.read_page" in names
        session.close()

    def test_to_dict_is_json_safe(self):
        session = _chain_session(4)
        with session.profile() as prof:
            session.query("path(1, X)").all()
        blob = json.dumps(prof.profile.to_dict())
        data = json.loads(blob)
        assert set(data) == {
            "wall_time", "eval", "rules", "iterations", "subgoals",
            "scans", "storage", "metrics",
        }
        assert data["metrics"]["eval.rule.applications"]["kind"] == "counter"


# ---------------------------------------------------------------------------
# overhead guard
# ---------------------------------------------------------------------------


class TestOverheadGuard:
    def test_disabled_observability_is_near_free(self):
        """With no profiler installed every hook is one ``is not None``
        branch; evaluation speed after a profiled run must stay within
        1.15x of a never-profiled session (median of 7 interleaved runs
        each)."""

        def run(session):
            start = time.perf_counter()
            count = len(session.query("path(X, Y)").all())
            elapsed = time.perf_counter() - start
            assert count == 40 * 41 // 2
            return elapsed

        baseline_session = _chain_session(40)
        profiled_session = _chain_session(40)
        run(baseline_session)  # warm both compile caches
        run(profiled_session)
        with profiled_session.profile():
            profiled_session.query("path(X, Y)").all()
        assert profiled_session.ctx.obs is None
        baseline_samples, after_samples = [], []
        # interleave the two sessions so machine-load drift during the
        # measurement hits both sides equally instead of skewing one
        for _ in range(7):
            baseline_samples.append(run(baseline_session))
            after_samples.append(run(profiled_session))
        baseline = statistics.median(baseline_samples)
        after = statistics.median(after_samples)

        # +1ms absolute slack keeps sub-millisecond jitter from flaking CI
        assert after <= baseline * 1.15 + 0.001, (
            f"disabled-observability overhead: {after:.4f}s vs "
            f"baseline {baseline:.4f}s"
        )

    def test_flight_recorder_and_idle_exposition_within_budget(self):
        """The telemetry plane's standing cost: a flight recorder installed
        as the observer plus an idle /metrics listener must keep the same
        chain-40 workload within 1.15x of the obs-disabled baseline —
        that is what makes them safe to leave on in production."""

        def run(session):
            start = time.perf_counter()
            count = len(session.query("path(X, Y)").all())
            elapsed = time.perf_counter() - start
            assert count == 40 * 41 // 2
            return elapsed

        baseline_session = _chain_session(40)
        telemetry_session = _chain_session(40)
        run(baseline_session)  # warm both compile caches
        run(telemetry_session)
        recorder = telemetry_session.enable_flight_recorder(capacity=4096)
        baseline_samples, telemetry_samples = [], []
        with TelemetryServer(port=0):  # idle scrape listener
            # interleave the two sessions so machine-load drift during the
            # measurement hits both sides equally instead of skewing one
            for _ in range(7):
                baseline_samples.append(run(baseline_session))
                telemetry_samples.append(run(telemetry_session))
        baseline = statistics.median(baseline_samples)
        after = statistics.median(telemetry_samples)
        assert telemetry_session.ctx.obs.flight is recorder
        assert recorder.recorded > 0, "recorder saw no events"

        assert after <= baseline * 1.15 + 0.001, (
            f"flight-recorder + exposition overhead: {after:.4f}s vs "
            f"baseline {baseline:.4f}s"
        )


# ---------------------------------------------------------------------------
# Chrome-trace golden schema
# ---------------------------------------------------------------------------


def _normalized_trace(trace):
    """Reduce a Chrome trace to its timing-independent schema: exactly what
    must stay stable for saved traces to keep loading in chrome://tracing."""
    events = trace["traceEvents"]
    return {
        "top_level_keys": sorted(trace.keys()),
        "displayTimeUnit": trace["displayTimeUnit"],
        "producer": trace["otherData"]["producer"],
        "phases": sorted({event["ph"] for event in events}),
        "categories": sorted({event["cat"] for event in events}),
        "names": sorted({event["name"] for event in events}),
        "complete_events_have_dur": all(
            "dur" in event for event in events if event["ph"] == "X"
        ),
        "instants_are_thread_scoped": all(
            event.get("s") == "t" for event in events if event["ph"] == "i"
        ),
    }


class TestChromeTraceGolden:
    def _trace(self):
        session = _chain_session(4)
        with session.profile() as prof:
            session.query("path(1, X)").all()
        return prof.profile.chrome_trace()

    def test_matches_golden_schema(self):
        golden_path = os.path.join(GOLDEN_DIR, "chrome_trace_tc.json")
        with open(golden_path) as handle:
            golden = json.load(handle)
        assert _normalized_trace(self._trace()) == golden

    def test_flight_ring_matches_golden_schema(self):
        """The flight ring goes through the same exporter as the profile
        trace and carries the same schema."""
        session = _chain_session(4)
        recorder = session.enable_flight_recorder()
        session.query("path(1, X)").all()
        trace = recorder.ring.chrome_trace()
        # sampled probe instants are the ring's own event
        trace["traceEvents"] = [
            event for event in trace["traceEvents"] if event["name"] != "scan"
        ]
        golden_path = os.path.join(GOLDEN_DIR, "chrome_trace_tc.json")
        with open(golden_path) as handle:
            golden = json.load(handle)
        assert _normalized_trace(trace) == golden

    def test_events_well_formed(self):
        trace = self._trace()
        events = trace["traceEvents"]
        assert events, "profiled TC query produced no trace events"
        assert min(event["ts"] for event in events) == 0
        for event in events:
            assert set(event) >= {"name", "cat", "ph", "ts", "pid", "tid"}
            assert event["ph"] in ("X", "i")
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # the query span must bracket the evaluation
        query_spans = [e for e in events if e["name"] == "query"]
        assert len(query_spans) == 1
        assert query_spans[0]["args"]["query"] == "path/2"
