"""Tests of the ledger itself.  Not part of the tier-1 suite (``testpaths`` is
``tests/``); run them with

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

import json
import re
import subprocess
import sys

import pytest

from repro import Session

from . import gen, harness, layers, oracle, trace, workloads
from .proc import ROOT, Reaper, ServerProcess

SHORT = 0.3  # seconds of measured window: one or two passes


# -- gen: the seed decides everything, and nothing else does ------------------


@pytest.mark.parametrize("name", sorted(gen.SPECS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    first = gen.op_list_bytes(gen.generate(name, 7))
    assert first == gen.op_list_bytes(gen.generate(name, 7))
    assert first != gen.op_list_bytes(gen.generate(name, 8))


@pytest.mark.parametrize("name", sorted(gen.SPECS))
def test_a_pass_restores_the_database(name):
    inputs = gen.generate(name, 3)
    for client in inputs.clients:
        state = oracle.EdgeState(inputs.edges)
        before = {k: set(v) for k, v in state.adjacency.items() if v}
        kinds = [state.toggle(client.pool[index]) for index, _ in client.steps]
        after = {k: set(v) for k, v in state.adjacency.items() if v}
        assert before == after
        assert kinds.count("insert") == kinds.count("delete")
        assert len(client.steps) == inputs.spec.steps_per_pass


def test_every_node_of_a_layer_sees_the_same_shape():
    spec = gen.SPECS["tc_reach"]
    state = oracle.EdgeState(gen.layered_dag(spec.layers, spec.width, False))
    for layer in range(spec.source_layers):
        sizes = {
            len(state.reachable(layer * spec.width + i))
            for i in range(spec.width)
        }
        assert len(sizes) == 1


# -- oracle ---------------------------------------------------------------------


def test_oracles_on_a_known_graph():
    state = oracle.EdgeState([(1, 2, 5), (1, 3, 1), (3, 2, 1), (2, 4, 1)])
    assert state.successors(1) == {2, 3}
    assert state.reachable(1) == {2, 3, 4}
    assert state.distances(1) == {3: 1, 2: 2, 4: 3}
    good = [(3, [(1, 3)], 1), (2, [(3, 2), (1, 3)], 2),
            (4, [(2, 4), (3, 2), (1, 3)], 3)]
    assert oracle.check_shortest(good, state, 1) is None
    dear = [(3, [(1, 3)], 1), (2, [(1, 2)], 5), (4, [(2, 4), (1, 2)], 6)]
    assert "cost 5 to 2" in oracle.check_shortest(dear, state, 1)
    broken = [good[0], (2, [(3, 2), (1, 2)], 2), good[2]]
    assert "breaks at" in oracle.check_shortest(broken, state, 1)
    assert "missing [4]" in oracle.check_shortest(good[:2], state, 1)
    assert state.toggle((1, 3, 1)) == "delete"
    assert state.distances(1) == {2: 5, 4: 6}
    assert state.toggle((1, 3, 1)) == "insert"


class _DropsAnAnswer(workloads.TcReach):
    def make_client(self, ops):
        client = super().make_client(ops)
        honest = client.query
        calls = iter(range(10**9))
        # every fifth read loses an answer; the rest still get measured
        client.query = lambda key: honest(key)[next(calls) % 5 == 4:]
        return client


class _RaisesOnDelete(workloads.TcReach):
    def make_client(self, ops):
        client = super().make_client(ops)
        honest = client.delete
        calls = iter(range(10**9))

        def delete(edge):
            if next(calls) % 3 == 2:
                raise RuntimeError("injected")
            return honest(edge)

        client.delete = delete
        return client


class _RefusedSubscriptions(workloads.LiveUpdate):
    def make_session(self):
        return Session(memo=True, compiled="push")  # live views refuse it


@pytest.mark.parametrize("name, broken, reason", [
    ("tc_reach", _DropsAnAnswer, "missing"),
    ("tc_reach", _RaisesOnDelete, "raised RuntimeError: injected"),
    ("live_update", _RefusedSubscriptions, "refused"),
])
def test_failures_are_counted_and_fail_the_command(
    monkeypatch, capsys, name, broken, reason
):
    monkeypatch.setitem(workloads.WORKLOADS, name, broken)
    result = harness.run_one(name, 1, SHORT, traced=False)
    assert result.failures.failed > 0 and not result.correct
    assert result.failures.ratio > 0
    assert any(reason in text for text in result.failures.reasons)
    code = harness.main(
        ["--workload", name, "--seed", "1", "--seconds", str(SHORT), "--trace", "0"]
    )
    assert code != 0
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]


# -- trace ----------------------------------------------------------------------


def _spin(seconds):
    end = trace.perf_counter() + seconds
    while trace.perf_counter() < end:
        pass


def test_self_time_is_duration_minus_children():
    recorder = trace.Recorder()
    outer = recorder.begin("outer", op_id=9)
    _spin(0.004)
    for _ in range(2):
        inner = recorder.begin("inner")
        _spin(0.003)
        leaf = recorder.begin("leaf")
        _spin(0.002)
        recorder.end(leaf)
        recorder.end(inner)
    recorder.end(outer)

    totals = trace.Totals(recorder.snapshot())
    assert totals.calls("inner") == 2 and totals.calls("outer") == 1
    assert totals.self_time("leaf") == pytest.approx(0.004, abs=0.001)
    assert totals.self_time("inner") == pytest.approx(0.006, abs=0.001)
    assert totals.self_time("outer") == pytest.approx(0.004, abs=0.001)
    assert totals.inclusive("outer") == pytest.approx(
        totals.self_time("outer", "inner", "leaf")
    )
    assert totals.self_time("inner", roots=["elsewhere"]) == 0.0

    spans = recorder.spans()
    assert [span[0] for span in spans] == ["outer", "inner", "leaf", "inner", "leaf"]
    by_name = {span[0]: span for span in spans}
    assert by_name["outer"][3] == 0  # no parent
    assert by_name["leaf"][3] == by_name["inner"][5]
    assert {span[4] for span in spans} == {9}  # all belong to op 9
    own = trace.self_times(spans)
    assert sum(own.values()) == pytest.approx(totals.inclusive("outer"))
    assert own[by_name["outer"][5]] == pytest.approx(totals.self_time("outer"))


def test_recursion_counts_inclusive_time_once():
    recorder = trace.Recorder()
    a = recorder.begin("again")
    b = recorder.begin("again")
    _spin(0.002)
    recorder.end(b)
    recorder.end(a)
    totals = trace.Totals(recorder.snapshot())
    assert totals.inclusive("again") == pytest.approx(
        totals.self_time("again"), rel=0.05
    )


class _Cursor:
    def __init__(self, items):
        self.items = list(items)

    def get_next(self):
        _spin(0.001)
        return self.items.pop(0) if self.items else None


class _Layer:
    def scan(self):
        return _Cursor([1, 2, 3])

    def hot(self):
        return 1


def test_install_wraps_uninstall_restores_and_drain_charges_the_span():
    targets = [
        trace.Target(__name__, "_Layer", "scan", "layer.scan", "drain"),
        trace.Target(__name__, "_Layer", "hot", "layer.hot", "counted"),
    ]
    original = _Layer.__dict__["scan"]
    recorder = trace.Recorder()
    assert trace.installed_count(targets) == 0
    installed = trace.install(recorder, targets)
    try:
        assert trace.installed_count(targets) == 2
        with pytest.raises(RuntimeError):
            trace.install(recorder, targets)
        layer = _Layer()
        assert list(layer.scan()) == [1, 2, 3]
        layer.hot(), layer.hot()
    finally:
        trace.uninstall(installed)
    assert trace.installed_count(targets) == 0
    assert _Layer.__dict__["scan"] is original
    totals = trace.Totals(recorder.snapshot())
    assert totals.calls("layer.scan") == 1  # the pulls are not extra calls
    assert totals.self_time("layer.scan") >= 0.004  # ... but their time counts
    assert totals.count("layer.hot") == 2


def test_every_target_resolves_and_untraced_runs_install_nothing(monkeypatch):
    assert trace.installed_count(layers.TARGETS) == 0
    seen = []
    honest = harness.run_window

    def watching(lanes, seconds, recorder=None, **kwargs):
        seen.append((recorder, trace.installed_count(layers.TARGETS)))
        return honest(lanes, seconds, recorder, **kwargs)

    monkeypatch.setattr(harness, "run_window", watching)
    assert harness.run_one("sp_agg", 1, SHORT, traced=False).correct
    assert seen and all(entry == (None, 0) for entry in seen)
    assert trace.installed_count(layers.TARGETS) == 0


# -- whole runs -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["sp_agg", "live_update"])
def test_counts_repeat_exactly_and_the_budget_adds_up(name):
    first = harness.run_one(name, 5, SHORT, traced=True)
    second = harness.run_one(name, 5, 3 * SHORT, traced=True)  # more passes
    assert first.correct and second.correct
    assert trace.installed_count(layers.TARGETS) == 0
    for metric in layers.PER_LAYER:
        if metric.unit == "count":
            assert first.metrics[metric.name][0] == second.metrics[metric.name][0], \
                metric.name
    value = {name: entry[0] for name, entry in first.metrics.items()}
    assert value["eval.inferences"] > 0 and value["relations.scan_calls"] > 0
    assert value["compilemod.push_coverage"] == 0
    # one step is one insert or delete plus one read; the self times of the
    # layer spans below them account for all of it but the remainders
    step_ms = value["op.query_ms"] + (value["op.insert_ms"] + value["op.delete_ms"]) / 2
    layer_ms = sum(
        value[m.name] for m in layers.PER_LAYER
        if m.unit == "ms" and m.layer.split(".")[0] in (
            "language", "rewriting", "optimizer", "modules", "eval", "compilemod")
    )
    assert 0.75 * step_ms <= layer_ms <= step_ms
    assert value["api.overhead_ms"] < 0.25 * value["op.query_ms"]
    if name == "live_update":
        assert value["live.refreshes_per_update"] == 4
        assert value["eval.memo.hit_ratio"] == 1
    else:
        assert value["eval.fixpoint_ms"] > 0.5 * value["op.query_ms"]


def test_wire_lookup_runs_clean_and_leaves_no_server_behind():
    result = harness.run_one("wire_lookup", 2, SHORT, traced=True)
    assert result.correct
    value = {name: entry[0] for name, entry in result.metrics.items()}
    assert value["client.round_trips_per_query"] == 2
    assert value["server.requests"] == 3  # INSERT|DELETE, QUERY, FETCH
    assert value["server.errors"] == 0
    assert value["eval.fixpoint_ms"] < 0.2 * value["op.query_ms"]
    assert value["server.dispatch_ms.FETCH"] > 0 and value["server.wait_ms"] > 0
    listing = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True)
    assert "repro.server" not in listing.stdout
    assert "server_launcher" not in listing.stdout


def test_server_child_is_killed_on_exception_and_by_the_reaper():
    reaper = Reaper()
    with pytest.raises(KeyError):
        with ServerProcess(reaper) as server:
            child = server.child
            assert server.port > 0 and child.poll() is None
            raise KeyError("the pass failed")
    assert child.poll() is not None
    orphan = ServerProcess(reaper).start()
    child = orphan.child
    reaper.kill_all()  # what atexit runs
    assert child.poll() is not None


def test_watchdog_fails_a_stuck_run_instead_of_hanging():
    stuck = (
        "import sys, time; sys.path[0:1] = [%r, %r]\n"
        "from benchmarks.ledger.proc import Reaper, Watchdog\n"
        "with Watchdog(0.2, Reaper(), 'stuck'):\n"
        "    time.sleep(30)\n" % (str(ROOT / "src"), str(ROOT))
    )
    done = subprocess.run([sys.executable, "-c", stuck], capture_output=True,
                          text=True, timeout=20)
    assert done.returncode == 3 and "wall-clock guard" in done.stderr


# -- BENCHMARK.json says what the code does -----------------------------------------


def test_benchmark_json_matches_the_metric_tables_and_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(gen.SPECS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in layers.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.PER_LAYER
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert "setup_s" in names and len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + harness.EXPECTED_OVERHEAD_SECONDS) < 3420
