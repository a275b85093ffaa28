"""Where the spans go, and what each metric means.

``TARGETS`` names the program's callables the traced pass wraps (by import
path — nothing under ``src/`` changes).  ``END_TO_END`` and ``PER_LAYER`` are
the metric tables: BENCHMARK.json lists the same names, units and
directions (``test_ledger.py`` checks the two agree), and each per-layer row
also records its layer and the end-to-end metric it is expected to move.

All per-layer ``*_ms`` values are mean *self* time per step (one toggle plus
one read) unless the row says otherwise, so on every workload

    op.query_ms = api.overhead_ms + (the read path's layer self times)

and a layer that gets faster can save at most its own row.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List

from .trace import Target, Totals

TARGETS: List[Target] = [
    # language: every site that holds its own reference to the parser
    Target("repro.api.session", None, "parse_query", "language.parse"),
    Target("repro.api.session", None, "parse_program", "language.parse"),
    Target("repro.server.core", None, "parse_query", "language.parse"),
    Target("repro.server.core", None, "parse_program", "language.parse"),
    # rewriting + optimizer: what compiling a query form is made of
    Target("repro.optimizer", None, "adorn_program", "rewriting.rewrite"),
    Target("repro.optimizer", None, "magic_rewrite", "rewriting.rewrite"),
    Target("repro.optimizer", None, "supmagic_rewrite", "rewriting.rewrite"),
    Target("repro.eval.fixpoint", None, "seminaive_rewrite", "rewriting.rewrite"),
    Target("repro.optimizer.joinorder", None, "order_program", "optimizer.order"),
    Target("repro.optimizer", "Optimizer", "compile", "optimizer.compile", "counted"),
    # modules: form cache, instance construction, the fixpoint itself
    Target("repro.modules.manager", "ModuleManager", "compiled_form",
           "modules.compiled_form"),
    Target("repro.modules.manager", "ModuleManager", "instance_for",
           "modules.instance_for"),
    Target("repro.modules.manager", "MaterializedInstance", "call",
           "eval.fixpoint", "drain"),
    Target("repro.eval.fixpoint", "SCCEvaluator", "__init__",
           "eval.scc_evaluator", "counted"),
    Target("repro.compilemod.push", "PushCompiler", "program_for",
           "compilemod.program_for"),
    Target("repro.relations.memory", "HashRelation", "scan",
           "relations.scan", "counted"),
    Target("repro.relations.memory", "HashRelation", "insert",
           "relations.insert", "counted"),
    # memo, maintenance, live views: the write side of eval
    Target("repro.eval.memo", "MemoCache", "lookup", "eval.memo.lookup"),
    Target("repro.eval.memo", "MemoCache", "on_insert", "eval.memo.on_update"),
    Target("repro.eval.memo", "MemoCache", "on_delete", "eval.memo.on_update"),
    Target("repro.eval.maintenance", "MaintenancePlan", "apply_inserts",
           "eval.maintenance.apply_inserts"),
    Target("repro.eval.maintenance", "MaintenancePlan", "apply_deletes",
           "eval.maintenance.apply_deletes"),
    Target("repro.live.view", "LiveViewManager", "on_insert", "live.on_insert"),
    Target("repro.live.view", "LiveViewManager", "on_delete", "live.on_delete"),
    # wire: framing (both sides), batches, the client's socket wait, dispatch
    Target("repro.server.protocol", None, "encode_frame", "protocol.encode_frame"),
    Target("repro.server.protocol", None, "decode_frame", "protocol.decode_frame"),
    Target("repro.server.core", None, "encode_batch", "server.encode_batch"),
    Target("repro.client.remote", None, "decode_batch", "client.decode_batch"),
    Target("repro.client.remote", None, "write_frame", "client.write_frame"),
    Target("repro.client.remote", None, "read_frame", "client.read_frame"),
    Target("repro.server.core", "CoralServer", "_dispatch",
           lambda self, conn, op, header, body: f"server.dispatch.{op}"),
]

#: the harness's own root spans, one per op
QUERY, INSERT, DELETE, SETUP = "op.query", "op.insert", "op.delete", "setup"
STEP_ROOTS = (QUERY, INSERT, DELETE)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("query_p50_ms", "ms", "lower", 0.25,
             "median latency of one read (query text in, all answers out)"),
    EndToEnd("query_p95_ms", "ms", "lower", 0.25,
             "95th percentile read latency (>= 10 samples beyond it)"),
    EndToEnd("queries_per_s", "1/s", "higher", 0.20,
             "steps (one commit + one read) completed per second: where a "
             "read gain that costs commits, or the reverse, shows"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "server start (wire_lookup) + consult + subscriptions + one "
             "warm-up read per query form; median of several set-ups"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "peak resident set of the harness, plus the server child's"),
]


@dataclass
class TraceContext:
    """Everything a per-layer metric is computed from: the traced steps of
    one run (``harness`` and ``server`` totals cover exactly those steps,
    ``setup`` exactly one traced set-up)."""

    #: one step is one commit (insert or delete) plus one read
    steps: int
    inserts: int
    deletes: int
    answers: int
    harness: Totals
    server: Totals
    setup: Totals
    #: deltas of the program's own counters over the traced steps
    counters: Dict[str, float]
    #: mean traced latency per op kind, seconds
    op_seconds: Dict[str, float]
    #: commit latencies of the run's untraced share, by kind, seconds
    untraced_seconds: Dict[str, List[float]]
    notify_seconds: float
    overhead_ratio: float

    def self_ms(self, *names: str) -> float:
        """Mean self time per step, both processes."""
        seconds = self.harness.self_time(*names) + self.server.self_time(*names)
        return _per(seconds * 1e3, self.steps)

    def calls(self, *names: str) -> float:
        return self.harness.calls(*names) + self.server.calls(*names)

    def counted(self, *names: str) -> float:
        return self.harness.count(*names) + self.server.count(*names)

    def counter(self, name: str) -> float:
        return _per(self.counters.get(name, 0.0), self.steps)


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def percentile(samples: List[float], share: float) -> float:
    """Nearest rank: the smallest sample with ``share`` of them at or below."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def _p95_ms(samples: List[float]) -> float:
    return percentile(samples, 0.95) * 1e3 if samples else 0.0


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    value: Callable[[TraceContext], float]


def _ms(name: str, layer: str, moves: str, *spans: str) -> PerLayer:
    return PerLayer(name, "ms", "lower", layer, moves,
                    lambda c: c.self_ms(*spans))


def _counter(name: str, layer: str, moves: str, key: str,
             better: str = "lower") -> PerLayer:
    return PerLayer(name, "count", better, layer, moves,
                    lambda c: c.counter(key))


def _setup_ms(name: str, moves: str, *spans: str) -> PerLayer:
    return PerLayer(name, "ms", "lower", "setup", moves,
                    lambda c: c.setup.self_time(*spans) * 1e3)


_READ = "query_p50_ms, queries_per_s"
_TC_SP = f"{_READ} on tc_reach, sp_agg; none on wire_lookup"
_WIRE = f"{_READ} on wire_lookup; none elsewhere"
_LIVE_W = "queries_per_s on live_update"
_LIVE_R = "query_p50_ms on live_update"


def _dispatch_self(c: TraceContext, op: str) -> float:
    return _per(c.server.self_time(f"server.dispatch.{op}") * 1e3, c.steps)


def _rtt_ms(c: TraceContext) -> float:
    seconds = c.harness.inclusive(
        "client.write_frame", "client.read_frame", roots=[QUERY]
    )
    return _per(seconds * 1e3, c.steps)


def _server_wait_ms(c: TraceContext) -> float:
    """What is left of the read path's round trips once everything measured
    on either side is taken out: socket, scheduling, and the db-lock
    hand-off — a remainder until the program grows a span of its own."""
    if not c.server.rows:
        return 0.0
    client_wait = c.harness.self_time(
        "client.write_frame", "client.read_frame", roots=[QUERY]
    )
    reads = ("server.dispatch.QUERY", "server.dispatch.FETCH")
    served = c.server.inclusive(*reads)
    # the server decodes before and encodes after dispatch, outside its
    # span; the read path's share of that framing is its share of requests
    framing = c.server.self_time("protocol.encode_frame", "protocol.decode_frame")
    framing *= _per(c.server.calls(*reads), c.server.calls("protocol.decode_frame"))
    return _per((client_wait - served - framing) * 1e3, c.steps)


PER_LAYER: List[PerLayer] = [
    # the traced ops themselves, so every budget below has its base
    PerLayer("op.query_ms", "ms", "lower", "api", "query_p50_ms",
             lambda c: c.op_seconds.get(QUERY, 0.0) * 1e3),
    PerLayer("op.insert_ms", "ms", "lower", "api", _LIVE_W,
             lambda c: c.op_seconds.get(INSERT, 0.0) * 1e3),
    PerLayer("op.delete_ms", "ms", "lower", "api", _LIVE_W,
             lambda c: c.op_seconds.get(DELETE, 0.0) * 1e3),
    # demoted from end-to-end by the stability audit: a 30 us commit right
    # after a 30 ms read runs cache-cold, and its latency follows the host's
    # memory traffic (26 -> 43 us between two quiet half-hours, same code);
    # measured on the run's untraced share
    PerLayer("op.insert_p50_ms", "ms", "lower", "api", "queries_per_s on live_update",
             lambda c: _median_ms(c.untraced_seconds[INSERT])),
    PerLayer("op.delete_p50_ms", "ms", "lower", "api", "queries_per_s on live_update",
             lambda c: _median_ms(c.untraced_seconds[DELETE])),
    PerLayer("op.update_p95_ms", "ms", "lower", "api", "queries_per_s on live_update",
             lambda c: _p95_ms(c.untraced_seconds[INSERT] + c.untraced_seconds[DELETE])),
    PerLayer("api.overhead_ms", "ms", "lower", "api",
             "query_p50_ms on wire_lookup",
             lambda c: _per(c.harness.self_time(QUERY) * 1e3, c.steps)),
    PerLayer("obs.trace_overhead_ratio", "ratio", "lower", "obs",
             "none: it prices the harness", lambda c: c.overhead_ratio),
    # language
    _ms("language.parse_ms", "language",
        "query_p50_ms on wire_lookup; setup_s everywhere", "language.parse"),
    PerLayer("language.parse_calls", "count", "lower", "language",
             "query_p50_ms on wire_lookup",
             lambda c: _per(c.calls("language.parse"), c.steps)),
    # rewriting, optimizer, modules
    _ms("rewriting.rewrite_ms", "rewriting",
        "setup_s; query_p50_ms only if forms are rebuilt per query",
        "rewriting.rewrite"),
    _ms("optimizer.order_ms", "optimizer",
        "setup_s; query_p50_ms only if forms are rebuilt per query",
        "optimizer.order"),
    _ms("modules.compiled_form_ms", "modules",
        "setup_s; query_p50_ms on tc_reach, sp_agg", "modules.compiled_form"),
    PerLayer("modules.compiled_form_calls", "count", "lower", "modules",
             "query_p50_ms on tc_reach, sp_agg",
             lambda c: _per(c.calls("modules.compiled_form"), c.steps)),
    PerLayer("modules.form_cache_hit_ratio", "ratio", "higher", "modules",
             "query_p50_ms on tc_reach, sp_agg",
             lambda c: _per(
                 c.calls("modules.compiled_form") - c.counted("optimizer.compile"),
                 c.calls("modules.compiled_form"))),
    _ms("modules.instance_for_ms", "modules", _TC_SP, "modules.instance_for"),
    # eval: the fixpoint
    _ms("eval.fixpoint_ms", "eval", _TC_SP, "eval.fixpoint"),
    _counter("eval.inferences", "eval", _TC_SP, "eval.inferences"),
    _counter("eval.facts_inserted", "eval", _TC_SP, "eval.facts_inserted"),
    _counter("eval.duplicates", "eval", _TC_SP, "eval.duplicates"),
    _counter("eval.iterations", "eval", _TC_SP, "eval.iterations"),
    _counter("eval.rule_applications", "eval", _TC_SP, "eval.rule_applications"),
    _counter("eval.subgoals", "eval", _TC_SP, "eval.subgoals"),
    PerLayer("eval.derivation_efficiency", "ratio", "higher", "eval", _TC_SP,
             lambda c: _per(c.counters.get("eval.facts_inserted", 0.0),
                            c.counters.get("eval.inferences", 0.0))),
    PerLayer("eval.answers_per_query", "count", "higher", "eval",
             "none: a property of the workload",
             lambda c: _per(c.answers, c.steps)),
    # compilemod
    _ms("compilemod.program_for_ms", "compilemod",
        "query_p50_ms on tc_reach; flat on sp_agg", "compilemod.program_for"),
    PerLayer("compilemod.push_scc_runs", "count", "higher", "compilemod",
             "query_p50_ms on tc_reach",
             lambda c: _per(c.calls("compilemod.program_for"), c.steps)),
    PerLayer("compilemod.fallback_scc_runs", "count", "lower", "compilemod",
             "query_p50_ms on tc_reach",
             lambda c: _per(c.counted("eval.scc_evaluator")
                            - c.calls("compilemod.program_for"), c.steps)),
    PerLayer("compilemod.push_coverage", "ratio", "higher", "compilemod",
             "query_p50_ms on tc_reach; flat on sp_agg",
             lambda c: _per(c.calls("compilemod.program_for"),
                            c.counted("eval.scc_evaluator"))),
    # relations
    PerLayer("relations.scan_calls", "count", "lower", "relations", _TC_SP,
             lambda c: _per(c.counted("relations.scan"), c.steps)),
    PerLayer("relations.insert_calls", "count", "lower", "relations", _TC_SP,
             lambda c: _per(c.counted("relations.insert"), c.steps)),
    PerLayer("relations.scans_per_answer", "ratio", "lower", "relations", _TC_SP,
             lambda c: _per(c.counted("relations.scan"), c.answers)),
    # memo
    _ms("eval.memo.lookup_ms", "eval.memo", _LIVE_R, "eval.memo.lookup"),
    PerLayer("eval.memo.hit_ratio", "ratio", "higher", "eval.memo", _LIVE_R,
             lambda c: _per(c.counters.get("memo.hits", 0.0),
                            c.counters.get("memo.hits", 0.0)
                            + c.counters.get("memo.misses", 0.0))),
    _counter("eval.memo.insert_refreshes", "eval.memo", _LIVE_R,
             "memo.insert_refreshes"),
    _counter("eval.memo.delete_refreshes", "eval.memo", _LIVE_R,
             "memo.delete_refreshes"),
    _counter("eval.memo.dred_overdeleted", "eval.memo", _LIVE_R,
             "memo.dred_overdeleted"),
    _counter("eval.memo.dred_rederived", "eval.memo", _LIVE_R,
             "memo.dred_rederived"),
    PerLayer("eval.memo.rederive_ratio", "ratio", "lower", "eval.memo", _LIVE_R,
             lambda c: _per(c.counters.get("memo.dred_rederived", 0.0),
                            c.counters.get("memo.dred_overdeleted", 0.0))),
    # maintenance + live views
    _ms("eval.maintenance.apply_inserts_ms", "eval.maintenance",
        f"{_LIVE_W}; {_LIVE_R}", "eval.maintenance.apply_inserts"),
    _ms("eval.maintenance.apply_deletes_ms", "eval.maintenance",
        f"{_LIVE_W}; {_LIVE_R}", "eval.maintenance.apply_deletes"),
    PerLayer("live.on_insert_ms", "ms", "lower", "live", _LIVE_W,
             lambda c: _per(c.harness.self_time("live.on_insert") * 1e3,
                            c.inserts)),
    PerLayer("live.on_delete_ms", "ms", "lower", "live", _LIVE_W,
             lambda c: _per(c.harness.self_time("live.on_delete") * 1e3,
                            c.deletes)),
    PerLayer("live.refreshes_per_update", "count", "lower", "live", _LIVE_W,
             lambda c: _per(c.counters.get("live.refreshes", 0.0),
                            c.inserts + c.deletes)),
    _counter("live.rebuilds", "live", _LIVE_W, "live.rebuilds"),
    _counter("live.deltas_emitted", "live", _LIVE_W, "live.deltas_emitted",
             better="higher"),
    PerLayer("live.notify_ms", "ms", "lower", "live", _LIVE_W,
             lambda c: c.notify_seconds * 1e3),
    # wire
    PerLayer("client.encode_ms", "ms", "lower", "client", _WIRE,
             lambda c: _per(c.harness.self_time("protocol.encode_frame") * 1e3,
                            c.steps)),
    PerLayer("client.decode_ms", "ms", "lower", "client", _WIRE,
             lambda c: _per(c.harness.self_time(
                 "protocol.decode_frame", "client.decode_batch") * 1e3,
                 c.steps)),
    PerLayer("client.rtt_ms", "ms", "lower", "client",
             f"{_WIRE} (inclusive: per read, both round trips)", _rtt_ms),
    PerLayer("client.round_trips_per_query", "count", "lower", "client", _WIRE,
             lambda c: _per(c.harness.calls("client.write_frame", roots=[QUERY]),
                            c.steps)),
    PerLayer("server.protocol.encode_frame_ms", "ms", "lower",
             "server.protocol", _WIRE,
             lambda c: _per(c.server.self_time("protocol.encode_frame") * 1e3,
                            c.steps)),
    PerLayer("server.protocol.decode_frame_ms", "ms", "lower",
             "server.protocol", _WIRE,
             lambda c: _per(c.server.self_time("protocol.decode_frame") * 1e3,
                            c.steps)),
    PerLayer("server.encode_batch_ms", "ms", "lower", "server", _WIRE,
             lambda c: _per(c.server.self_time("server.encode_batch") * 1e3,
                            c.steps)),
    PerLayer("server.dispatch_ms.QUERY", "ms", "lower", "server", _WIRE,
             lambda c: _dispatch_self(c, "QUERY")),
    PerLayer("server.dispatch_ms.FETCH", "ms", "lower", "server", _WIRE,
             lambda c: _dispatch_self(c, "FETCH")),
    PerLayer("server.wait_ms", "ms", "lower", "server", _WIRE, _server_wait_ms),
    PerLayer("server.requests", "count", "lower", "server", _WIRE,
             lambda c: _per(c.server.calls("protocol.decode_frame"), c.steps)),
    _counter("server.errors", "server", _WIRE, "server.errors"),
    # one traced set-up, decomposed (totals, not per step)
    _setup_ms("setup.parse_ms", "setup_s", "language.parse"),
    _setup_ms("setup.rewrite_ms", "setup_s", "rewriting.rewrite"),
    _setup_ms("setup.order_ms", "setup_s", "optimizer.order"),
    _setup_ms("setup.compiled_form_ms", "setup_s", "modules.compiled_form"),
    _setup_ms("setup.fixpoint_ms", "setup_s", "eval.fixpoint"),
    _setup_ms("setup.other_ms", "setup_s", SETUP),
]
