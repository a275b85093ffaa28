"""Structured event tracing: the one bounded event buffer of
:mod:`repro.obs`, exportable to JSON-lines and the Chrome
``chrome://tracing`` / Perfetto trace-event format.

The span taxonomy mirrors the evaluation pipeline::

    query                   one QueryResult drain (api/session.py)
      rewrite               one optimizer compilation (modules/manager.py)
      fixpoint.seed         the once-rules pass of an SCC (eval/fixpoint.py)
      fixpoint.iteration    one semi-naive iteration
        rule <pred>         one rule application
      subgoal               one pipelined / ordered-search subgoal
    <fault-point name>      storage instants (buffer.writeback, journal.sync,
                            disk.write_page, ... — exactly the injection-point
                            names of :mod:`repro.faults`, so a trace and a
                            crash schedule speak the same vocabulary)

An event is the tuple ``(ph, ts, dur, name, cat, args)``: phase ``X`` (a
span) or ``i`` (an instant), ``time.perf_counter`` seconds; exporters
rebase them to microseconds from the earliest event, which is what the
Chrome format expects.  The buffer is a ring: past ``limit`` the *oldest*
event is evicted and counted, so it always holds the most recent history
and profiling a pathological query cannot exhaust memory.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Callable, Dict, IO, Iterator, List, Optional, Union


class _Span:
    """``with owner.span(name, cat, **args): ...`` — records one complete
    (X) event through ``finish(name, cat, start, **args)`` on exit."""

    __slots__ = ("_finish", "_name", "_cat", "_args", "_start")

    def __init__(self, finish, name: str, cat: str, args) -> None:
        self._finish = finish
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._finish(self._name, self._cat, self._start, **self._args)


def _json_args(args):
    """An event's args as exported; a sampled scan carries the raw
    ``(pred key, tuples probed, matches)`` so formatting waits until here."""
    if type(args) is tuple:
        key, tuples, matches = args
        return {"pred": f"{key[0]}/{key[1]}", "tuples": tuples, "matches": matches}
    return args


def _write(target: Union[str, IO[str]], text: str) -> None:
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as handle:
            handle.write(text)


class EventTracer:
    """A bounded, thread-safe ring of events (see the module docstring).

    ``recorded`` counts every append and ``dropped`` every eviction, both
    exactly: server handler threads share one buffer, and the lock keeps
    the append, the counts and the exporters' snapshots atomic.
    """

    def __init__(self, limit: int = 200_000) -> None:
        if limit < 1:
            raise ValueError(f"event buffer limit must be >= 1, got {limit}")
        self.limit = limit
        self.events: deque = deque(maxlen=limit)
        self.recorded = 0
        self.dropped = 0
        #: optional callable invoked (outside the lock, best-effort) once
        #: per evicted event — the server points this at an
        #: ``obs.trace.dropped`` counter so loss is visible in /metrics and
        #: STATS, not just inside an export
        self.on_drop: Optional[Callable[[], None]] = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.events)

    # -- recording -----------------------------------------------------------

    def append(self, event) -> None:
        with self._lock:
            evicts = len(self.events) == self.limit
            self.events.append(event)
            self.recorded += 1
            if evicts:
                self.dropped += 1
        if evicts and self.on_drop is not None:
            try:
                self.on_drop()
            except Exception:
                pass

    def snapshot(self) -> list:
        with self._lock:
            return list(self.events)

    def clear(self) -> None:
        """Empty the buffer; the lifetime counters survive."""
        with self._lock:
            self.events.clear()

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def complete(self, name: str, cat: str, start: float, **args) -> None:
        """Record a span that began at ``start`` (a :meth:`now` value) and
        ends now — the Chrome 'complete' (X) phase."""
        self.append(
            ("X", start, time.perf_counter() - start, name, cat, args or None)
        )

    def instant(self, name: str, cat: str, **args) -> None:
        self.append(("i", time.perf_counter(), 0.0, name, cat, args or None))

    def span(self, name: str, cat: str = "eval", **args) -> _Span:
        """``with tracer.span("rewrite", module="tc"): ...``"""
        return _Span(self.complete, name, cat, args)

    # -- export --------------------------------------------------------------

    def _rebased(self) -> Iterator[tuple]:
        events = self.snapshot()
        origin = min((event[1] for event in events), default=0.0)
        for ph, ts, dur, name, cat, args in events:
            yield (
                ph, round((ts - origin) * 1e6, 3), round(dur * 1e6, 3),
                name, cat, _json_args(args),
            )

    def chrome_trace(self, pid: int = 1, tid: int = 1) -> Dict[str, object]:
        """The buffer as a Chrome/Perfetto trace-event JSON object.

        Load the written file at ``chrome://tracing`` or ui.perfetto.dev.
        Timestamps/durations are microseconds relative to the first event.
        """
        trace_events: List[Dict[str, object]] = []
        for ph, ts, dur, name, cat, args in self._rebased():
            entry: Dict[str, object] = {
                "name": name, "cat": cat, "ph": ph, "ts": ts,
                "pid": pid, "tid": tid,
            }
            if ph == "X":
                entry["dur"] = dur
            else:
                entry["s"] = "t"  # thread-scoped instant
            if args:
                entry["args"] = args
            trace_events.append(entry)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "dropped_events": self.dropped,
            },
        }

    def write_chrome_trace(self, target: Union[str, IO[str]]) -> None:
        _write(target, json.dumps(self.chrome_trace()))

    def records(self) -> List[Dict[str, object]]:
        """The buffer, oldest first, as JSON-safe dicts (``ts_us``, and
        ``dur_us`` for spans) — one per JSON line."""
        out: List[Dict[str, object]] = []
        for ph, ts, dur, name, cat, args in self._rebased():
            record: Dict[str, object] = {
                "name": name, "cat": cat, "ph": ph, "ts_us": ts,
            }
            if ph == "X":
                record["dur_us"] = dur
            if args:
                record["args"] = args
            out.append(record)
        return out

    def to_jsonl(self, header: Optional[Dict[str, object]] = None) -> str:
        """One JSON object per line per event (ingestion-friendly), after
        an optional ``header`` line that gains the event count."""
        records = self.records()
        if header is not None:
            records.insert(0, dict(header, events=len(records)))
        return "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )

    def write_jsonl(self, target: Union[str, IO[str]]) -> None:
        _write(target, self.to_jsonl())
