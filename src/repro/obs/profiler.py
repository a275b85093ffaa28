"""The query profiler: one context manager that turns every counter the
system keeps into a structured, renderable :class:`QueryProfile`.

Usage (the only public entry points are ``session.profile()`` and the
shell's ``@profile`` command)::

    with session.profile() as prof:
        session.query("path(1, X)").all()
    print(prof.profile.render())
    prof.profile.write_chrome_trace("query.trace.json")

While the ``with`` block is active the profiler's trace buffer and
aggregates are attached to the evaluation context's
:class:`~repro.obs.observer.Observer` (``ctx.obs``, shared with any flight
recorder); the instrumentation hooks in ``eval/`` and ``storage/`` are all
guarded by a single ``if obs is not None`` branch, so a session that never
profiles pays one predictable branch per hook site and nothing else.

What a profile contains:

* **eval** — deltas of the session's :class:`~repro.eval.context.EvalStats`
  (inferences, facts inserted, duplicates, iterations, rule applications,
  subgoals, module calls);
* **rules** — per semi-naive rule: applications, tuples derived vs.
  rejected as duplicates, and inclusive evaluation time;
* **iterations** — per fixpoint iteration: new facts and wall time;
* **subgoals** — per pipelined / ordered-search subgoal predicate: calls
  and *inclusive* wall time (a recursive subgoal's time includes its
  callees');
* **scans** — per body predicate: scans opened, tuples probed, unification
  matches (the nested-loops join's probe-side accounting);
* **storage** — buffer pool hits/misses/evictions/writebacks, server page
  I/O, B-tree node reads/writes/splits, journal appends/fsyncs, and the
  raw per-injection-point arrival deltas of :mod:`repro.faults`;
* **metrics** — the same data as a :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot (stable names, see docs/OBSERVABILITY.md);
* a bounded :class:`~repro.obs.trace.EventTracer` with the span taxonomy
  query > rewrite > fixpoint iteration > rule application, exportable to
  JSON-lines and Chrome ``chrome://tracing`` format.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from ..errors import CoralError
from .metrics import MetricsRegistry, SIZE_BUCKETS, TIME_BUCKETS
from .observer import attach, detach
from .trace import EventTracer

#: the bound on a profile's event buffer
TRACE_LIMIT = 200_000


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 0.001:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.0f} us"


class QueryProfile:
    """The immutable result of one profiled block."""

    def __init__(
        self,
        wall_time: float,
        eval_stats: Dict[str, int],
        rules: List[Dict[str, object]],
        iterations: List[Dict[str, object]],
        subgoals: Dict[str, Dict[str, Dict[str, object]]],
        scans: Dict[str, Dict[str, int]],
        storage: Optional[Dict[str, object]],
        registry: MetricsRegistry,
        tracer: Optional[EventTracer],
        memo: Optional[Dict[str, int]] = None,
    ) -> None:
        self.wall_time = wall_time
        self.eval = eval_stats
        self.rules = rules
        self.iterations = iterations
        self.subgoals = subgoals
        self.scans = scans
        self.storage = storage
        self.registry = registry
        self.tracer = tracer
        #: cross-query memo-cache counter deltas over the profiled block
        #: (hits, misses, invalidations, ...; None when memoization is off)
        self.memo = memo

    # -- the headline numbers ------------------------------------------------

    @property
    def iteration_count(self) -> int:
        return self.eval.get("iterations", 0)

    @property
    def rule_applications(self) -> int:
        return self.eval.get("rule_applications", 0)

    @property
    def buffer_hit_rate(self) -> Optional[float]:
        if not self.storage:
            return None
        buffer = self.storage["buffer"]
        total = buffer["hits"] + buffer["misses"]
        return buffer["hits"] / total if total else 0.0

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe structured form (what the benchmarks emit)."""
        payload = {
            "wall_time": self.wall_time,
            "eval": dict(self.eval),
            "rules": [dict(rule) for rule in self.rules],
            "iterations": [dict(item) for item in self.iterations],
            "subgoals": {
                kind: {pred: dict(entry) for pred, entry in by_pred.items()}
                for kind, by_pred in self.subgoals.items()
            },
            "scans": {pred: dict(entry) for pred, entry in self.scans.items()},
            "storage": self.storage,
            "metrics": self.registry.collect(),
        }
        if self.memo is not None:  # only sessions with the cache enabled
            payload["memo"] = self.memo
        return payload

    def save_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    def _trace(self) -> EventTracer:
        if self.tracer is None:
            raise CoralError("profiling ran with trace=False; no trace to export")
        return self.tracer

    def chrome_trace(self) -> Dict[str, object]:
        return self._trace().chrome_trace()

    def write_chrome_trace(self, target) -> None:
        self._trace().write_chrome_trace(target)

    def write_jsonl(self, target) -> None:
        self._trace().write_jsonl(target)

    # -- rendering -----------------------------------------------------------

    def render(self, max_rules: int = 10) -> str:
        """A human-readable profile tree (the ``@profile`` output)."""
        lines: List[str] = [f"query profile ({_fmt_seconds(self.wall_time)} wall)"]

        lines.append("+- evaluation")
        e = self.eval
        lines.append(
            f"|    iterations: {e.get('iterations', 0)}"
            f"   rule applications: {e.get('rule_applications', 0)}"
            f"   inferences: {e.get('inferences', 0)}"
        )
        lines.append(
            f"|    facts inserted: {e.get('facts_inserted', 0)}"
            f"   duplicates: {e.get('duplicates', 0)}"
            f"   subgoals: {e.get('subgoals', 0)}"
            f"   module calls: {e.get('module_calls', 0)}"
        )

        if self.rules:
            lines.append(f"+- rules (top {min(max_rules, len(self.rules))} by time)")
            for rule in self.rules[:max_rules]:
                lines.append(
                    f"|    {rule['applications']:>5} apps"
                    f"  {rule['derived']:>6} derived"
                    f"  {rule['duplicates']:>6} dup"
                    f"  {_fmt_seconds(rule['time']):>8}"
                    f"  {rule['rule']}"
                )

        if self.iterations:
            lines.append(f"+- fixpoint iterations ({len(self.iterations)})")
            shown = self.iterations[:8]
            for item in shown:
                lines.append(
                    f"|    #{item['index']:<3} {item['new_facts']:>6} new facts"
                    f"  {_fmt_seconds(item['time']):>8}  [{item['scc']}]"
                )
            if len(self.iterations) > len(shown):
                lines.append(f"|    ... {len(self.iterations) - len(shown)} more")

        for kind in sorted(self.subgoals):
            by_pred = self.subgoals[kind]
            if not by_pred:
                continue
            lines.append(f"+- subgoal timings ({kind}, inclusive)")
            ranked = sorted(
                by_pred.items(), key=lambda item: item[1]["time"], reverse=True
            )
            for pred, entry in ranked[:max_rules]:
                lines.append(
                    f"|    {pred}: {entry['calls']} calls,"
                    f" {_fmt_seconds(entry['time'])}"
                )

        if self.scans:
            lines.append("+- join scans (probe side)")
            ranked = sorted(
                self.scans.items(), key=lambda item: item[1]["tuples"], reverse=True
            )
            for pred, entry in ranked[:max_rules]:
                lines.append(
                    f"|    {pred}: {entry['scans']} scans,"
                    f" {entry['tuples']} tuples probed,"
                    f" {entry['matches']} matches"
                )

        if self.storage is not None:
            s = self.storage
            buffer, server = s["buffer"], s["server"]
            rate = self.buffer_hit_rate
            lines.append("+- storage")
            lines.append(
                f"     buffer: {buffer['hits']} hits / {buffer['misses']} misses"
                f" ({rate:.1%} hit rate), {buffer['evictions']} evictions,"
                f" {buffer['writebacks']} writebacks"
            )
            lines.append(
                f"     server: {server['page_reads']} page reads,"
                f" {server['page_writes']} page writes,"
                f" {server['allocations']} allocations"
            )
            btree = s["btree"]
            lines.append(
                f"     b-tree: {btree['node_reads']} node reads,"
                f" {btree['node_writes']} node writes, {btree['splits']} splits"
            )
            journal = s["journal"]
            lines.append(
                f"     journal: {journal['appends']} appends,"
                f" {journal['fsyncs']} fsyncs"
            )
        if self.tracer is not None:
            suffix = (
                f" (+{self.tracer.dropped} dropped)" if self.tracer.dropped else ""
            )
            lines.append(f"+- trace: {len(self.tracer)} events{suffix}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<QueryProfile wall={self.wall_time:.4f}s"
            f" iterations={self.iteration_count}"
            f" rule_applications={self.rule_applications}>"
        )


class Profiler:
    """The owner of a profile's trace buffer and aggregates; a context
    manager yielding itself.

    ``Profiler(ctx=...)`` is the embedding-level constructor (the benchmarks
    use it directly); ``session.profile()`` fills in the session's context,
    buffer pool, and storage server.  Only one profiler may be attached to
    a context at a time.
    """

    def __init__(self, ctx, pool=None, server=None, trace: bool = True) -> None:
        self.ctx = ctx
        self.pool = pool
        self.server = server
        self.registry = MetricsRegistry()
        self.tracer = EventTracer(limit=TRACE_LIMIT) if trace else None
        self.profile: Optional[QueryProfile] = None
        # the aggregates, filled by the context's Observer while attached:
        # rule entries by id(rule), subgoal rows by kind and pred, scan rows
        # by pred key, iteration rows in order
        self.rules: Dict[int, object] = {}
        self.subgoals: Dict[str, Dict[str, Dict[str, object]]] = {}
        self.scans: Dict[object, Dict[str, int]] = {}
        self.iterations: List[Dict[str, object]] = []
        self._used = False

    # -- install / uninstall -------------------------------------------------

    def __enter__(self) -> "Profiler":
        if self._used:
            raise CoralError(
                "this Profiler was already used; its counters would be "
                "corrupted by re-entry — create a fresh one "
                "(session.profile())"
            )
        self._t0 = time.perf_counter()
        self._before = self._counters()
        # attaching is the last step: a busy context raises before anything
        # is installed, leaving the context and injector untouched
        injector = self.server.faults if self.server is not None else None
        attach(self.ctx, injector, "profiler", self)
        self._used = True
        return self

    def __exit__(self, *exc_info) -> bool:
        wall = time.perf_counter() - self._t0
        detach(self.ctx, "profiler", self)
        self.profile = self._finalize(wall)
        return False

    # -- finalization ---------------------------------------------------------

    def _counters(self) -> Dict[str, Dict[str, float]]:
        """A snapshot of every counter source the profile diffs."""
        counters = {"eval": self.ctx.stats.snapshot()}
        memo = getattr(self.ctx, "memo", None)
        if memo is not None:
            counters["memo"] = memo.snapshot()
        if self.pool is not None:
            counters["buffer"] = self.pool.stats.snapshot()
            if self.pool.btree_stats is not None:
                counters["btree"] = self.pool.btree_stats.snapshot()
        if self.server is not None:
            counters["server"] = self.server.stats.snapshot()
            counters["fault_points"] = dict(self.server.faults.counts)
        return counters

    def _finalize(self, wall: float) -> QueryProfile:
        after = self._counters()
        # a source first seen at exit (a B-tree opened in the block) diffs
        # against zero
        deltas = {
            name: {
                key: value - self._before.get(name, {}).get(key, 0)
                for key, value in counters.items()
            }
            for name, counters in after.items()
        }
        eval_stats = deltas["eval"]

        # merge rule entries by text (the same rule object exists once per
        # evaluator instance; a re-compiled module yields equal text)
        merged: Dict[str, Dict[str, object]] = {}
        for entry in self.rules.values():
            slot = merged.get(entry.text)
            if slot is None:
                merged[entry.text] = {
                    "rule": entry.text,
                    "applications": entry.applications,
                    "derived": entry.derived,
                    "duplicates": entry.duplicates,
                    "time": entry.time,
                }
            else:
                slot["applications"] += entry.applications
                slot["derived"] += entry.derived
                slot["duplicates"] += entry.duplicates
                slot["time"] += entry.time
        rules = sorted(merged.values(), key=lambda r: r["time"], reverse=True)
        subgoals = self.subgoals
        scans = {f"{pred}/{arity}": row for (pred, arity), row in self.scans.items()}

        storage: Optional[Dict[str, object]] = None
        if self.pool is not None or self.server is not None:
            points = deltas.get("fault_points", {})
            storage = {
                "buffer": deltas.get("buffer") or {
                    "hits": 0, "misses": 0, "evictions": 0, "writebacks": 0,
                },
                "server": deltas.get("server") or {
                    "page_reads": 0, "page_writes": 0, "allocations": 0,
                },
                "btree": deltas.get("btree") or {
                    "node_reads": 0, "node_writes": 0, "splits": 0,
                },
                "journal": {
                    "appends": points.get("journal.record", 0),
                    "fsyncs": points.get("journal.sync", 0),
                },
                "fault_points": {
                    point: count for point, count in sorted(points.items()) if count
                },
            }

        memo_stats = deltas.get("memo") if "memo" in self._before else None
        if memo_stats is not None:
            # entries/bytes are gauges, not counters: report the level
            memo_stats["entries"] = after["memo"]["entries"]
            memo_stats["bytes"] = after["memo"]["bytes"]

        self._publish_metrics(
            eval_stats, rules, subgoals, scans, storage, memo_stats
        )
        return QueryProfile(
            wall_time=wall,
            eval_stats=eval_stats,
            rules=rules,
            iterations=list(self.iterations),
            subgoals=subgoals,
            scans=scans,
            storage=storage,
            registry=self.registry,
            tracer=self.tracer,
            memo=memo_stats,
        )

    def _publish_metrics(
        self, eval_stats, rules, subgoals, scans, storage, memo_stats=None
    ):
        """Flush the hot-path accumulators into the registry so a single
        ``registry.collect()`` (or ``profile.to_dict()["metrics"]``) carries
        every counter under its stable name."""
        registry = self.registry
        eval_counter = registry.counter(
            "eval.stats", "EvalStats deltas over the profiled block", ("stat",)
        )
        for stat, value in eval_stats.items():
            if value:
                eval_counter.inc(value, stat)
        rule_apps = registry.counter(
            "eval.rule.applications", "rule applications", ("rule",)
        )
        rule_derived = registry.counter(
            "eval.rule.derived", "tuples derived (pre-dedup)", ("rule",)
        )
        rule_dups = registry.counter(
            "eval.rule.duplicates", "derivations rejected as duplicates", ("rule",)
        )
        rule_time = registry.histogram(
            "eval.rule.seconds", "inclusive per-application time", ("rule",),
            boundaries=TIME_BUCKETS,
        )
        for rule in rules:
            rule_apps.inc(rule["applications"], rule["rule"])
            rule_derived.inc(rule["derived"], rule["rule"])
            rule_dups.inc(rule["duplicates"], rule["rule"])
            rule_time.observe(rule["time"], rule["rule"])
        iteration_sizes = registry.histogram(
            "eval.iteration.new_facts", "facts per fixpoint iteration",
            boundaries=SIZE_BUCKETS,
        )
        for item in self.iterations:
            iteration_sizes.observe(item["new_facts"])
        subgoal_calls = registry.counter(
            "eval.subgoal.calls", "subgoal activations", ("kind", "pred")
        )
        for kind, by_pred in subgoals.items():
            for pred, entry in by_pred.items():
                subgoal_calls.inc(entry["calls"], kind, pred)
        scan_tuples = registry.counter(
            "eval.scan.tuples", "tuples probed by the join", ("pred",)
        )
        scan_matches = registry.counter(
            "eval.scan.matches", "tuples that unified", ("pred",)
        )
        for pred, entry in scans.items():
            scan_tuples.inc(entry["tuples"], pred)
            scan_matches.inc(entry["matches"], pred)
        if storage:
            points = registry.counter(
                "storage.events", "arrivals per fault-injection point", ("point",)
            )
            for point, count in storage["fault_points"].items():
                points.inc(count, point)
            for group in ("buffer", "server", "btree", "journal"):
                counter = registry.counter(
                    f"storage.{group}", f"{group} counters", ("stat",)
                )
                for stat, value in storage[group].items():
                    if value:
                        counter.inc(value, stat)
        if memo_stats:
            memo_counter = registry.counter(
                "memo.events",
                "cross-query memo cache activity over the profiled block",
                ("stat",),
            )
            for stat, value in memo_stats.items():
                if stat in ("entries", "bytes"):
                    continue
                if value:
                    memo_counter.inc(value, stat)
            registry.gauge(
                "memo.entries", "retained memo entries"
            ).set(memo_stats["entries"])
            registry.gauge(
                "memo.bytes", "estimated bytes retained by the memo cache"
            ).set(memo_stats["bytes"])
