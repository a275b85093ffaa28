"""The harness's span recorder: wrappers around calls into each layer.

Spans are recorded *by the harness*: ``install`` replaces named callables of
the program (see ``layers.TARGETS``) with timing wrappers and ``uninstall``
puts the originals back; nothing under ``src/`` knows about it.  A span has
a name, start, end, parent and the id of the op that caused it.  Totals are
kept online per ``(root span, name)`` — calls, inclusive time (outermost
activation only, so recursion is not counted twice) and *self* time, a
span's duration minus the part its child spans cover — and full span
records are retained while ``Recorder.retain`` is set (the harness keeps the
set-up and the first traced pass), to be written as JSONL and a Chrome
trace when the run ends.  Each thread records into its own state; states
are merged when a snapshot is taken.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

#: (name, start, end, parent span id or 0, op id, span id)
Span = Tuple[str, float, float, int, int, int]

_MARK = "__ledger_wrapped__"


class _ThreadState:
    __slots__ = (
        "recorder", "index", "stack", "active", "totals", "counts",
        "spans", "next_id", "op_id",
    )

    def __init__(self, recorder: "Recorder", index: int) -> None:
        self.recorder = recorder
        self.index = index
        #: open frames, outermost first: [name, start, child seconds, span id]
        self.stack: List[list] = []
        self.active: Dict[str, int] = {}
        #: (root name, span name) -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[Tuple[str, str], list] = {}
        #: span name -> calls, for wrappers too hot to time (not split by root)
        self.counts: Dict[str, int] = {}
        self.spans: List[Span] = []
        self.next_id = index << 32
        self.op_id = 0

    def push(self, name: str) -> list:
        self.next_id += 1
        self.active[name] = self.active.get(name, 0) + 1
        frame = [name, 0.0, 0.0, self.next_id]
        self.stack.append(frame)
        # read the clock last so the bookkeeping above lands in the parent
        frame[1] = perf_counter()
        return frame

    def pop(self, frame: list, calls: int = 1) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        name = frame[0]
        duration = end - frame[1]
        depth = self.active[name] - 1
        self.active[name] = depth
        key = (stack[0][0] if stack else name, name)
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0, 0.0, 0.0]
        total[0] += calls
        if depth == 0:
            total[1] += duration
        total[2] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        recorder = self.recorder
        if recorder.retain and len(self.spans) < recorder.keep_spans:
            self.spans.append(
                (name, frame[1], end, stack[-1][3] if stack else 0,
                 self.op_id, frame[3])
            )


class Recorder:
    """One process's spans.  Callers create it and pass it to ``install``."""

    def __init__(self, keep_spans: int = 200_000) -> None:
        #: per-thread cap on retained span records (totals are never capped)
        self.keep_spans = keep_spans
        self.retain = True
        self._local = threading.local()
        # re-entrant: the traced server snapshots from a signal handler
        self._lock = threading.RLock()
        self._states: List[_ThreadState] = []

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(self, len(self._states) + 1)
                self._states.append(state)
            self._local.state = state
        return state

    # -- explicit spans (the harness's per-op roots, and the tests) -----------

    def begin(self, name: str, op_id: Optional[int] = None) -> list:
        state = self.state()
        if op_id is not None:
            state.op_id = op_id
        return state.push(name)

    def end(self, frame: list) -> None:
        self.state().pop(frame)

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> Dict[str, list]:
        """Merged totals and counts, JSON-serializable:
        ``totals`` rows are [root, name, calls, inclusive s, self s] and
        ``counts`` rows are [name, n]."""
        totals: Dict[Tuple[str, str], list] = {}
        counts: Dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, inclusive, own) in list(state.totals.items()):
                row = totals.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += inclusive
                row[2] += own
            for key, n in list(state.counts.items()):
                counts[key] = counts.get(key, 0) + n
        return {
            "totals": [[*key, *row] for key, row in sorted(totals.items())],
            "counts": [[name, n] for name, n in sorted(counts.items())],
        }

    def spans(self) -> List[Span]:
        with self._lock:
            states = list(self._states)
        return sorted(
            (span for state in states for span in list(state.spans)),
            key=lambda span: span[1],
        )


class Totals:
    """Read side of a ``Recorder.snapshot()`` (or a difference of two)."""

    def __init__(self, snapshot: Dict[str, list],
                 since: Optional[Dict[str, list]] = None) -> None:
        self.rows: Dict[Tuple[str, str], list] = {}
        self.counts: Dict[str, int] = {}
        for sign, snap in ((1, snapshot), (-1, since)):
            if snap is None:
                continue
            for root, name, calls, inclusive, own in snap["totals"]:
                row = self.rows.setdefault((root, name), [0, 0.0, 0.0])
                row[0] += sign * calls
                row[1] += sign * inclusive
                row[2] += sign * own
            for name, n in snap["counts"]:
                self.counts[name] = self.counts.get(name, 0) + sign * n

    def keep_roots(self, roots: Iterable[str]) -> None:
        """Drop every timed row recorded under another root span."""
        roots = set(roots)
        self.rows = {k: v for k, v in self.rows.items() if k[0] in roots}

    def add(self, other: "Totals") -> None:
        for key, row in other.rows.items():
            mine = self.rows.setdefault(key, [0, 0.0, 0.0])
            for column in range(3):
                mine[column] += row[column]
        for name, n in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + n

    def _sum(self, column: int, names: Iterable[str],
             roots: Optional[Iterable[str]]) -> float:
        names = set(names)
        roots = None if roots is None else set(roots)
        return sum(
            row[column]
            for (root, name), row in self.rows.items()
            if name in names and (roots is None or root in roots)
        )

    def calls(self, *names: str, roots=None) -> int:
        return int(self._sum(0, names, roots))

    def inclusive(self, *names: str, roots=None) -> float:
        return self._sum(1, names, roots)

    def self_time(self, *names: str, roots=None) -> float:
        return self._sum(2, names, roots)

    def count(self, *names: str) -> int:
        return sum(self.counts.get(name, 0) for name in names)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own: Dict[int, float] = {}
    children: Dict[int, float] = {}
    for _name, start, end, parent, _op, span_id in spans:
        own[span_id] = end - start
        if parent:
            children[parent] = children.get(parent, 0.0) + (end - start)
    return {
        span_id: duration - children.get(span_id, 0.0)
        for span_id, duration in own.items()
    }


# -- wrappers -----------------------------------------------------------------


class _TimedCursor:
    """A get-next-tuple cursor whose pulls count toward the span that
    returned it — lazy evaluation does its work in the drain, not the call."""

    def __init__(self, recorder: Recorder, name: str, inner) -> None:
        self._recorder = recorder
        self._name = name
        self._inner = inner

    def get_next(self):
        state = self._recorder.state()
        frame = state.push(self._name)
        try:
            return self._inner.get_next()
        finally:
            state.pop(frame, calls=0)

    def close(self) -> None:
        self._inner.close()

    def __iter__(self):
        while True:
            item = self.get_next()
            if item is None:
                return
            yield item

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def timed(recorder: Recorder, name: Union[str, Callable[..., str]],
          fn: Callable, drain: bool = False) -> Callable:
    """``fn`` under a span.  ``name`` may be computed from the call's
    arguments; with ``drain`` a returned cursor keeps charging the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name if isinstance(name, str) else name(*args, **kwargs)
        state = recorder.state()
        frame = state.push(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            state.pop(frame)
        if drain and hasattr(result, "get_next"):
            return _TimedCursor(recorder, span_name, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def counted(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """``fn`` with a call counter only — for calls too hot to time."""

    local = recorder._local

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = getattr(local, "state", None) or recorder.state()
        counts = state.counts
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    setattr(wrapper, _MARK, True)
    return wrapper


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module`` attribute ``attr``, or a method
    ``attr`` of class ``owner`` in ``module``."""

    module: str
    owner: Optional[str]
    attr: str
    name: Union[str, Callable[..., str]]
    kind: str = "timed"  # "timed" | "drain" | "counted"

    def holder(self):
        module = importlib.import_module(self.module)
        return module if self.owner is None else getattr(module, self.owner)


def install(recorder: Recorder, targets: Iterable[Target]) -> List[tuple]:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    installed = []
    for target in targets:
        holder = target.holder()
        original = holder.__dict__[target.attr]
        if getattr(original, _MARK, False):
            raise RuntimeError(f"{target.module}.{target.attr} already wrapped")
        if target.kind == "counted":
            wrapper = counted(recorder, target.name, original)
        else:
            wrapper = timed(
                recorder, target.name, original, drain=target.kind == "drain"
            )
        setattr(holder, target.attr, wrapper)
        installed.append((holder, target.attr, original))
    return installed


def uninstall(installed: List[tuple]) -> None:
    for holder, attr, original in reversed(installed):
        setattr(holder, attr, original)
    installed.clear()


def installed_count(targets: Iterable[Target]) -> int:
    """How many of ``targets`` are currently wrapped (0 on untraced passes)."""
    return sum(
        1 for target in targets
        if getattr(target.holder().__dict__.get(target.attr), _MARK, False)
    )


# -- output ---------------------------------------------------------------------


def write_jsonl(path: str, spans_by_process: Dict[str, List[Span]]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for process, spans in spans_by_process.items():
            own = self_times(spans)
            for name, start, end, parent, op_id, span_id in spans:
                out.write(json.dumps({
                    "process": process, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op_id, "id": span_id,
                    "self": own[span_id],
                }) + "\n")


def write_chrome_trace(path: str, spans_by_process: Dict[str, List[Span]]) -> None:
    events = []
    for pid, (process, spans) in enumerate(spans_by_process.items(), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": process}})
        for name, start, end, parent, op_id, span_id in spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": span_id >> 32,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op_id, "id": span_id, "parent": parent},
            })
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
