"""EXPLAIN / EXPLAIN ANALYZE rendering, the slow-query log, and the shell
commands that surface both (@explain, @top)."""

import json

import pytest

from repro import Session
from repro.errors import CoralError
from repro.server import CoralServer
from repro.shell.repl import Shell

TC_PROGRAM = """
    edge(1, 2). edge(2, 3). edge(3, 4).

    module tc.
    export path(bf, ff).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    end_module.
"""


#: Figure 3 of the paper: aggregate selections and head aggregates
SP_MODULE = """
    module s_p.
    export s_p(bfff).
    @aggregate_selection p(X, Y, P, C) (X, Y) min(C).
    @aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
    s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
    s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
    p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                       append([edge(Z, Y)], P, P1), C1 = C + EC.
    p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
    end_module.
"""


def _session():
    session = Session()
    session.consult_string(TC_PROGRAM)
    return session


class TestExplain:
    def test_module_plan_shows_rewriting_and_scc_order(self):
        plan = _session().explain("path(1, X)?")
        assert plan.startswith("EXPLAIN path(1, X)")
        assert "module: tc" in plan
        assert "call adornment: bf" in plan
        assert "chosen form: bf" in plan
        assert "rewriting:" in plan
        assert "scc order" in plan
        assert "join order:" in plan

    def test_unbound_call_uses_ff_form(self):
        plan = _session().explain("path(X, Y)?")
        assert "call adornment: ff" in plan
        assert "chosen form: ff" in plan

    def test_rewriting_choice_is_spelled_out(self):
        """Golden: the chosen technique and why each earlier candidate was
        rejected, identically in explain, @explain and the listing."""
        session = _session()
        session.consult_string(SP_MODULE)
        shell = Shell(session=session)
        golden = {
            ("tc", "path(1, X)", "bf"): (
                "factoring",
                ["none: rejected — form bf binds arguments",
                 "factoring: chosen"],
            ),
            ("s_p", "s_p(1, Y, P, C)", "bfff"): (
                "none",
                ["none: rejected — form bfff binds arguments",
                 "factoring: rejected — s_p/4 has no recursive rule",
                 "supplementary_magic: rejected — the rewritten program is "
                 "not stratified (ordered search over the original rules "
                 "instead)",
                 "none: chosen"],
            ),
            ("tc", "path(X, Y)", "ff"): ("none", ["none: chosen"]),
        }
        for (module, query, form), (technique, trail) in golden.items():
            plan = session.explain(query).splitlines()
            at = next(
                i for i, line in enumerate(plan)
                if line.startswith(f"+- rewriting: {technique} ")
            )
            assert plan[at + 1:at + 1 + len(trail)] == [
                f"|      {line}" for line in trail
            ]
            assert shell.execute(f'@explain "{query}".').splitlines() == plan
            pred = query.split("(")[0]
            listing = session.modules.compiled_form(module, pred, form).listing()
            assert listing.splitlines()[1:2 + len(trail)] == [
                f"% technique: {technique}, strategy: bsn"
                + (", lazy" if module == "tc" else "")
            ] + [f"%   {line}" for line in trail]

    def test_base_relation_plan(self):
        plan = _session().explain("edge(1, X)?")
        assert "base relation scan: edge/2" in plan
        assert "selection on argument(s): 0" in plan

    def test_base_relation_full_scan(self):
        plan = _session().explain("edge(X, Y)?")
        assert "full scan" in plan

    def test_unknown_predicate_raises(self):
        with pytest.raises(CoralError, match="nothing known"):
            _session().explain("mystery(X)?")

    def test_analyze_runs_the_query_and_measures(self):
        plan = _session().explain("path(1, X)?", analyze=True)
        assert "ANALYZE: 3 answer(s)" in plan
        assert "iterations:" in plan
        assert "apps" in plan  # per-rule cost lines

    def test_analyze_leaves_observer_slot_free(self):
        session = _session()
        session.explain("path(1, X)?", analyze=True)
        assert session.ctx.obs is None
        # and it composes with a flight recorder installed
        recorder = session.enable_flight_recorder()
        plan = session.explain("path(1, X)?", analyze=True)
        assert "ANALYZE" in plan
        assert session.ctx.obs.flight is recorder


class TestSlowQueryLog:
    def test_threshold_zero_logs_every_query(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        session = _session()
        log = session.enable_slow_query_log(path, threshold=0.0)
        answers = session.query("path(1, X)").all()
        assert len(answers) == 3
        assert log.entries_written == 1
        with open(path) as handle:
            entry = json.loads(handle.readline())
        assert entry["query"] == "path(1, X)"
        assert entry["answers"] == 3
        assert entry["finished"] is True
        assert entry["wall_seconds"] >= 0.0
        assert "module: tc" in entry["plan"]
        assert entry["eval"]  # nonzero evaluation counters

    def test_high_threshold_logs_nothing(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        session = _session()
        log = session.enable_slow_query_log(path, threshold=3600.0)
        session.query("path(1, X)").all()
        assert log.entries_written == 0

    def test_abandoned_cursor_logged_as_unfinished(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        session = _session()
        log = session.enable_slow_query_log(path, threshold=0.0)
        result = session.query("path(1, X)")
        assert result.get_next() is not None
        result.close()
        assert log.entries_written == 1
        assert log.last_entry["finished"] is False
        assert log.last_entry["answers"] == 1

    def test_analyze_mode_does_not_relog_itself(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        session = _session()
        log = session.enable_slow_query_log(path, threshold=0.0, analyze=True)
        session.query("path(1, X)").all()
        # the analyze re-run under the profiler must not append a second entry
        assert log.entries_written == 1
        assert "ANALYZE" in log.last_entry["plan"]

    def test_disable_stops_logging(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        session = _session()
        log = session.enable_slow_query_log(path, threshold=0.0)
        session.query("path(1, X)").all()
        session.disable_slow_query_log()
        session.query("path(1, X)").all()
        assert log.entries_written == 1

    def test_negative_threshold_rejected(self, tmp_path):
        session = _session()
        with pytest.raises(ValueError):
            session.enable_slow_query_log(
                str(tmp_path / "slow.jsonl"), threshold=-1.0
            )

    def test_unwritable_path_never_fails_the_query(self):
        session = _session()
        log = session.enable_slow_query_log(
            "/nonexistent-dir/slow.jsonl", threshold=0.0
        )
        answers = session.query("path(1, X)").all()
        assert len(answers) == 3  # query unharmed
        assert log.entries_written == 0


class TestShellExplain:
    def test_explain_command(self):
        shell = Shell(session=_session())
        output = shell.execute('@explain "path(1, X)".')
        assert "EXPLAIN path(1, X)" in output
        assert "module: tc" in output

    def test_explain_analyze_command(self):
        shell = Shell(session=_session())
        output = shell.execute('@explain analyze "path(1, X)".')
        assert "ANALYZE: 3 answer(s)" in output

    def test_explain_usage(self):
        shell = Shell(session=_session())
        assert "usage" in shell.execute("@explain.")

    def test_explain_error_is_reported_not_raised(self):
        shell = Shell(session=_session())
        output = shell.execute('@explain "mystery(X)".')
        assert output.startswith("error:")


class TestShellTop:
    def test_top_requires_remote_mode(self):
        shell = Shell(session=_session())
        assert "@connect" in shell.execute("@top.")

    def test_top_renders_dashboard(self):
        session = _session()
        with CoralServer(session, port=0) as server:
            shell = Shell()
            host, port = server.address
            shell.execute(f"@connect {host}:{port}.")
            shell.execute("path(1, X)?")
            output = shell.execute("@top.")
            shell.execute("@disconnect.")
        assert "coral-server @top" in output
        assert "requests/s:" in output
        assert "FETCH" in output  # latency percentiles by op
        assert "cursors:" in output

    def test_top_multiple_samples(self):
        session = _session()
        with CoralServer(session, port=0) as server:
            shell = Shell()
            host, port = server.address
            shell.execute(f"@connect {host}:{port}.")
            output = shell.execute("@top 2 0.01.")
            shell.execute("@disconnect.")
        assert output.count("coral-server @top") == 2

    def test_top_usage_on_bad_arguments(self):
        session = _session()
        with CoralServer(session, port=0) as server:
            shell = Shell()
            host, port = server.address
            shell.execute(f"@connect {host}:{port}.")
            assert "usage" in shell.execute("@top nope.")
            assert "usage" in shell.execute("@top 0.")
            shell.execute("@disconnect.")

    def test_render_top_handles_minimal_payload(self):
        # a pre-telemetry server (or mocked stats) without rates/latency
        text = Shell._render_top({"connections": {}, "cursors": {}})
        assert "coral-server @top" in text
