"""The evaluator's one observer: every instrumentation hook, implemented once.

``ctx.obs`` and the fault injector's ``observer`` are an :class:`Observer`
while a flight recorder or a profiler is attached, and ``None`` otherwise.
Each hook builds its event once, as the ``(ph, ts, dur, name, cat, args)``
tuple of :mod:`repro.obs.trace`, and feeds the attached consumers: the
flight ring (which alone also gets every 16th relation probe, and is dumped
on faults and errors), a profile's event buffer, and a profile's
aggregates.  Attaching one never displaces the other.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple as PyTuple

from ..errors import CoralError, ResourceLimitError, StorageError
from .trace import _Span

#: only every SCAN_STRIDE-th relation probe enters the flight ring: probes
#: outnumber every other event by ~50:1 and would dominate its standing cost
SCAN_STRIDE = 16

_clock = time.perf_counter


class _RuleEntry:
    """Per-rule accumulator; the evaluator bumps ``derived``/``duplicates``
    on the entry :meth:`Observer.begin_rule` returns."""

    __slots__ = (
        "text", "name", "args", "applications", "derived", "duplicates", "time",
    )

    def __init__(self, text: str) -> None:
        self.text = text
        self.name = f"rule {text.split('(', 1)[0]}"
        self.args = {"rule": text}
        self.applications = 0
        self.derived = 0
        self.duplicates = 0
        self.time = 0.0


def attach(ctx, injector, role: str, owner) -> None:
    """Attach ``owner`` as the context's ``role`` consumer (``"flight"`` or
    ``"profiler"``), creating the observer if nothing was attached yet."""
    obs = ctx.obs if ctx.obs is not None else Observer()
    if getattr(obs, role) is not None:
        raise CoralError(
            f"a {type(owner).__name__} is already installed on this context"
        )
    obs._set(role, owner)
    ctx.obs = obs
    if injector is not None:
        obs.wire(injector)


def detach(ctx, role: str, owner) -> None:
    """Undo :func:`attach`; the last consumer out clears ``ctx.obs`` and the
    wired injector's ``observer``."""
    obs = ctx.obs
    if obs is None or getattr(obs, role) is not owner:
        return
    obs._set(role, None)
    if obs.flight is None and obs.profiler is None:
        ctx.obs = None
        if obs.injector is not None:
            obs.injector.observer = None


class Observer:
    """The hook protocol the evaluator and storage stack call (see the
    module docstring); created and dropped by :func:`attach`/:func:`detach`."""

    def __init__(self) -> None:
        self.flight = None
        self.profiler = None
        self.injector = None
        self._sinks: tuple = ()
        self._rules: Dict[int, _RuleEntry] = {}
        self._scan_tick = 0

    def _set(self, role: str, owner) -> None:
        setattr(self, role, owner)
        flight, profiler = self.flight, self.profiler
        ring = flight.ring if flight is not None else None
        trace = profiler.tracer if profiler is not None else None
        self._sinks = tuple(s for s in (ring, trace) if s is not None)
        # rule entries land in the profile's table while one is attached
        self._rules = profiler.rules if profiler is not None else {}

    def wire(self, injector) -> None:
        """Make a fault injector report to this observer until the last
        consumer detaches (also for storage opened after attaching)."""
        injector.observer = self
        self.injector = injector

    def _emit(self, event: tuple) -> None:
        for sink in self._sinks:
            sink.append(event)

    @property
    def registry(self):
        """The attached profile's metrics registry (None without one);
        compile fallbacks are counted there."""
        return self.profiler.registry if self.profiler is not None else None

    # -- generic spans and instants (query, rewrite, module calls) -----------

    def begin_span(self) -> float:
        return _clock()

    def end_span(self, name: str, cat: str, start: float, **args) -> None:
        self._emit(("X", start, _clock() - start, name, cat, args or None))

    def span(self, name: str, cat: str = "eval", **args) -> _Span:
        """Context-manager form for non-generator call sites."""
        return _Span(self.end_span, name, cat, args)

    def event(self, name: str, cat: str = "eval", **args) -> None:
        self._emit(("i", _clock(), 0.0, name, cat, args or None))

    # -- fixpoint rules and iterations ---------------------------------------

    def begin_rule(self, rule) -> PyTuple[_RuleEntry, float]:
        entry = self._rules.get(id(rule))
        if entry is None:
            entry = self._rules[id(rule)] = _RuleEntry(str(rule))
        entry.applications += 1
        return entry, _clock()

    def end_rule(self, entry: _RuleEntry, start: float) -> None:
        elapsed = _clock() - start
        entry.time += elapsed
        self._emit(("X", start, elapsed, entry.name, "eval", entry.args))

    def pushed_rules(self, rows, start: float, elapsed: float) -> None:
        """One push run's rules, ``(rule, attempts, new facts)`` each: an
        application apiece, and the run's time shared out by attempts (the
        fused code has no per-rule clock), laid end to end from ``start``."""
        total = sum(attempts for _, attempts, _ in rows) or 1
        for rule, attempts, new in rows:
            entry, _ = self.begin_rule(rule)
            entry.derived += new
            entry.duplicates += attempts - new
            share = elapsed * attempts / total
            entry.time += share
            self._emit(("X", start, share, entry.name, "eval", entry.args))
            start += share

    def begin_iteration(self, scc_label: str, index: int) -> float:
        return _clock()

    def end_iteration(
        self, scc_label: str, index: int, new_facts: int, start: float
    ) -> None:
        elapsed = _clock() - start
        args = {"scc": scc_label, "index": index, "new_facts": new_facts}
        if self.profiler is not None:
            self.profiler.iterations.append(dict(args, time=elapsed))
        self._emit(("X", start, elapsed, "fixpoint.iteration", "eval", args))

    # -- pipelined / ordered-search subgoals ---------------------------------

    def begin_subgoal(self, kind: str, pred: str, arity: int):
        label = f"{pred}/{arity}"
        entry = None
        if self.profiler is not None:
            by_pred = self.profiler.subgoals.setdefault(kind, {})
            entry = by_pred.get(label)
            if entry is None:
                entry = by_pred[label] = {"calls": 0, "time": 0.0}
            entry["calls"] += 1
        return entry, {"pred": label, "kind": kind}, _clock()

    def end_subgoal(self, token) -> None:
        entry, args, start = token
        elapsed = _clock() - start
        if entry is not None:
            entry["time"] += elapsed
        self._emit(("X", start, elapsed, "subgoal", "eval", args))

    # -- join scans (the hottest hook: one call per relation probe) ----------

    def on_scan(self, key, tuples: int, matches: int) -> None:
        if self.profiler is not None:
            scans = self.profiler.scans
            entry = scans.get(key)
            if entry is None:
                entry = scans[key] = {"scans": 0, "tuples": 0, "matches": 0}
            entry["scans"] += 1
            entry["tuples"] += tuples
            entry["matches"] += matches
        if self.flight is not None:
            self._scan_tick = tick = self._scan_tick + 1
            if not tick % SCAN_STRIDE:
                self.flight.ring.append(
                    ("i", _clock(), 0.0, "scan", "eval", (key, tuples, matches))
                )

    # -- storage and failures (called by FaultInjector and QueryResult) ------

    def storage_event(self, point: str) -> None:
        """One arrival at a fault-injection point (a profile counts them
        from the injector's own per-point totals)."""
        self._emit(("i", _clock(), 0.0, point, "storage", None))

    def on_fault(self, point: str, action: str) -> None:
        """An injected fault is about to fire at ``point``; its arrival
        instant is already recorded (``storage_event`` ran first), so the
        flight dump's tail shows exactly where the crash hit."""
        self.event(f"fault.{action}", "storage", point=point)
        if self.flight is not None:
            self.flight.dump(reason=f"fault.{action}:{point}")

    def on_error(self, exc: BaseException) -> None:
        """A query pull died.  Every error becomes an instant; only the
        classes worth a post-mortem (storage failures, resource-limit
        trips) dump the flight ring."""
        self.event(
            f"error.{type(exc).__name__}", "error", message=str(exc)[:200]
        )
        if self.flight is not None and isinstance(
            exc, (StorageError, ResourceLimitError)
        ):
            self.flight.dump(reason=type(exc).__name__)
