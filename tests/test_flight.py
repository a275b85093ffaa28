"""Flight recorder: an always-on bounded ring of recent events, dumped as a
post-mortem when a storage fault or resource-limit trip fires."""

import json
import os

import pytest

from repro import Session
from repro.errors import CoralError, ResourceLimitError, StorageError
from repro.eval.limits import ResourceLimits
from repro.faults import FaultInjector, SimulatedCrash
from repro.obs import FlightRecorder, Profiler

TC_PROGRAM = """
    edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).

    module tc.
    export path(bf).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    end_module.
"""


def _read_dump(path):
    with open(path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert lines, "dump file is empty"
    header, events = lines[0], lines[1:]
    assert header["flight"] is True
    assert header["events"] == len(events)
    return header, events


class TestRing:
    def test_capacity_bounds_memory_recorded_counts_all(self):
        recorder = FlightRecorder(capacity=8)
        for index in range(100):
            recorder.event(f"e{index}", "test")
        assert len(recorder) == 8
        assert recorder.recorded == 100
        names = [event["name"] for event in recorder.snapshot()]
        assert names == [f"e{index}" for index in range(92, 100)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_snapshot_rebases_timestamps_to_oldest(self):
        recorder = FlightRecorder(capacity=4)
        recorder.event("a", "test")
        recorder.event("b", "test")
        snapshot = recorder.snapshot()
        assert snapshot[0]["ts_us"] == 0.0
        assert snapshot[1]["ts_us"] >= 0.0

    def test_spans_record_duration(self):
        recorder = FlightRecorder(capacity=4)
        with recorder.span("work", "test", detail=1):
            pass
        (event,) = recorder.snapshot()
        assert event["ph"] == "X"
        assert event["dur_us"] >= 0.0
        assert event["args"] == {"detail": 1}

    def test_clear(self):
        recorder = FlightRecorder(capacity=4)
        recorder.event("a", "test")
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.recorded == 1  # lifetime counter survives

    def test_dump_without_target_returns_none(self):
        recorder = FlightRecorder(capacity=4)
        recorder.event("a", "test")
        assert recorder.dump() is None
        assert recorder.dump_count == 0

    def test_dump_swallows_write_failures(self):
        recorder = FlightRecorder(
            capacity=4, dump_path="/nonexistent-dir/flight.jsonl"
        )
        recorder.event("a", "test")
        assert recorder.dump(reason="x") is None
        assert recorder.dump_count == 0


class TestSessionIntegration:
    def test_records_evaluation_events(self):
        session = Session()
        recorder = session.enable_flight_recorder(capacity=256)
        session.consult_string(TC_PROGRAM)
        answers = session.query("path(1, X)").all()
        assert len(answers) == 4
        names = {event["name"] for event in recorder.snapshot()}
        assert "fixpoint.iteration" in names
        assert any(name.startswith("rule ") for name in names)

    def test_observer_slot_is_exclusive(self):
        session = Session()
        session.enable_flight_recorder()
        with pytest.raises(CoralError, match="already"):
            session.enable_flight_recorder()
        session.disable_flight_recorder()
        assert session.ctx.obs is None
        session.enable_flight_recorder()  # free again

    def test_profiler_chains_over_recorder(self):
        """A profiled run feeds the ring exactly as an unprofiled one.  Each
        side runs the query 16 times, so the 1-in-16 scan samples add the
        same count whatever phase the sampler starts at."""
        session = Session()
        recorder = session.enable_flight_recorder(capacity=4096)
        session.consult_string(TC_PROGRAM)
        session.query("path(1, X)").all()  # compile outside the comparison

        def grows_by(run):
            before = recorder.recorded
            run()
            return recorder.recorded - before

        def queries():
            for _ in range(16):
                assert len(session.query("path(1, X)").all()) == 4

        def profiled():
            with session.profile(trace=False) as profiler:
                queries()
            assert profiler.profile.rule_applications > 0

        unprofiled = grows_by(queries)
        assert unprofiled > 0
        assert grows_by(profiled) == unprofiled
        assert session.ctx.obs.flight is recorder

    def test_profiler_exception_restores_recorder(self):
        session = Session()
        recorder = session.enable_flight_recorder(capacity=256)
        session.consult_string(TC_PROGRAM)
        with pytest.raises(CoralError):
            with session.profile(trace=False):
                raise CoralError("boom mid-profile")
        assert session.ctx.obs.flight is recorder
        assert session.ctx.obs.profiler is None


class TestAutomaticDumps:
    def test_injected_storage_crash_dumps_ring(self, tmp_path):
        """The acceptance scenario: a fault-injected storage crash produces
        a flight dump whose final events include the faulting point."""
        dump_path = str(tmp_path / "flight.jsonl")
        session = Session()
        recorder = session.enable_flight_recorder(
            capacity=128, dump_path=dump_path
        )
        injector = FaultInjector().crash_at("disk.write_page", 1)
        session.open_storage(str(tmp_path / "data"), faults=injector)
        assert injector.observer.flight is recorder
        session.persistent_relation("p", 2)
        with pytest.raises(SimulatedCrash):
            for index in range(2000):
                session.insert("p", index, index)
                session.storage_pool.flush_all()
        assert os.path.exists(dump_path)
        header, events = _read_dump(dump_path)
        assert header["reason"] == "fault.crash:disk.write_page"
        # the tail must show the arrival at the faulting point, then the
        # fault instant itself
        tail_names = [event["name"] for event in events[-2:]]
        assert tail_names == ["disk.write_page", "fault.crash"]
        assert events[-1]["args"] == {"point": "disk.write_page"}

    def test_injected_io_failure_dumps_ring(self, tmp_path):
        dump_path = str(tmp_path / "flight.jsonl")
        session = Session()
        session.enable_flight_recorder(capacity=64, dump_path=dump_path)
        injector = FaultInjector().fail_at("server.write_page", 1)
        session.open_storage(str(tmp_path / "data"), faults=injector)
        session.persistent_relation("p", 2)
        with pytest.raises((StorageError, OSError)):
            for index in range(2000):
                session.insert("p", index, index)
                session.storage_pool.flush_all()
        header, events = _read_dump(dump_path)
        assert header["reason"].startswith("fault.fail")
        assert any(event["name"] == "fault.fail" for event in events)

    def test_resource_limit_trip_dumps_ring(self, tmp_path):
        dump_path = str(tmp_path / "flight.jsonl")
        session = Session()
        session.enable_flight_recorder(capacity=64, dump_path=dump_path)
        session.consult_string(TC_PROGRAM)
        session.ctx.limits = ResourceLimits(max_tuples=1)
        try:
            with pytest.raises(ResourceLimitError):
                session.query("path(1, X)").all()
        finally:
            session.ctx.limits = None
        assert os.path.exists(dump_path)
        header, events = _read_dump(dump_path)
        assert header["reason"] == "ResourceLimitError"
        assert events[-1]["name"] == "error.ResourceLimitError"

    def test_recorder_enabled_after_storage_still_sees_faults(self, tmp_path):
        """enable_flight_recorder after open_storage wires the injector
        observer too (the other order is covered above)."""
        dump_path = str(tmp_path / "flight.jsonl")
        session = Session()
        injector = FaultInjector()
        session.open_storage(str(tmp_path / "data"), faults=injector)
        recorder = session.enable_flight_recorder(
            capacity=64, dump_path=dump_path
        )
        assert injector.observer.flight is recorder


class TestSharedObserver:
    """The flight ring and a profile are consumers of one observer: a
    profiled block neither blinds the ring nor suppresses its dumps."""

    def test_limit_trip_inside_profile_dumps_ring(self, tmp_path):
        dump_path = str(tmp_path / "flight.jsonl")
        session = Session()
        session.enable_flight_recorder(capacity=64, dump_path=dump_path)
        session.consult_string(TC_PROGRAM)
        session.ctx.limits = ResourceLimits(max_tuples=1)
        try:
            with session.profile(trace=False):
                with pytest.raises(ResourceLimitError):
                    session.query("path(1, X)").all()
        finally:
            session.ctx.limits = None
        header, events = _read_dump(dump_path)
        assert header["reason"] == "ResourceLimitError"
        assert events[-1]["name"] == "error.ResourceLimitError"

    def test_storage_crash_inside_profile_dumps_ring(self, tmp_path):
        dump_path = str(tmp_path / "flight.jsonl")
        session = Session()
        session.enable_flight_recorder(capacity=128, dump_path=dump_path)
        injector = FaultInjector().crash_at("disk.write_page", 1)
        session.open_storage(str(tmp_path / "data"), faults=injector)
        session.persistent_relation("p", 2)
        with pytest.raises(SimulatedCrash):
            with session.profile(trace=False):
                for index in range(2000):
                    session.insert("p", index, index)
                    session.storage_pool.flush_all()
        header, events = _read_dump(dump_path)
        assert header["reason"] == "fault.crash:disk.write_page"
        tail_names = [event["name"] for event in events[-2:]]
        assert tail_names == ["disk.write_page", "fault.crash"]

    @pytest.mark.parametrize("flight_first", [True, False])
    def test_attach_and_detach_in_any_order(self, tmp_path, flight_first):
        session = Session()
        injector = FaultInjector()
        session.open_storage(str(tmp_path / "data"), faults=injector)
        session.consult_string(TC_PROGRAM)
        if flight_first:
            recorder = session.enable_flight_recorder(capacity=64)
        with session.profile(trace=False) as profiler:
            if not flight_first:
                recorder = session.enable_flight_recorder(capacity=64)
            obs = session.ctx.obs
            assert obs.flight is recorder and obs.profiler is profiler
            assert injector.observer is obs
            session.disable_flight_recorder()
            assert session.ctx.obs is obs and obs.profiler is profiler
            assert len(session.query("path(1, X)").all()) == 4
        assert profiler.profile.rule_applications > 0
        assert session.ctx.obs is None
        assert injector.observer is None

    def test_storage_opened_inside_profile_is_unwired_at_exit(self, tmp_path):
        session = Session()
        with session.profile(trace=False):
            session.open_storage(str(tmp_path / "data"))
            injector = session._server.faults
            assert injector.observer is session.ctx.obs
        assert session.ctx.obs is None
        assert injector.observer is None

    def test_ring_and_profile_trace_are_one_event_sequence(self):
        session = Session()
        recorder = session.enable_flight_recorder(capacity=4096)
        session.consult_string(TC_PROGRAM)
        before = recorder.recorded
        with session.profile() as profiler:
            session.query("path(1, X)").all()
        block = list(recorder.ring.events)[before - recorder.recorded:]
        # sampled probe instants are the ring's own; the profile keeps
        # exact scan totals instead
        ring = [event for event in block if event[3] != "scan"]
        trace = list(profiler.profile.tracer.events)
        assert len(ring) == len(trace) > 0

        def schema(events):  # (name, cat, ph, args)
            return [(e[3], e[4], e[0], e[5]) for e in events]

        assert schema(ring) == schema(trace)
        # built once, fed to both buffers
        assert all(a is b for a, b in zip(ring, trace))


class TestProfilerReuse:
    def test_profiler_is_single_use(self):
        session = Session()
        session.consult_string(TC_PROGRAM)
        profiler = session.profile(trace=False)
        with profiler:
            session.query("path(1, X)").all()
        with pytest.raises(CoralError, match="already used"):
            with profiler:
                pass

    def test_second_profiler_on_busy_context_rejected(self):
        session = Session()
        session.consult_string(TC_PROGRAM)
        with session.profile(trace=False):
            with pytest.raises(CoralError, match="already installed"):
                with session.profile(trace=False):
                    pass
