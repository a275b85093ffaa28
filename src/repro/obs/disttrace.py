"""repro.obs.disttrace — the distributed tracing plane.

A request entering the cluster (shell -> router -> workers, or a write
rippling primary -> replicas) crosses processes whose telemetry was, until
now, uncorrelated.  This module supplies the three pieces that stitch it
back together:

* :class:`TraceContext` — a W3C-traceparent-style context (128-bit trace
  id, 64-bit span id, sampling flag) minted at the client and carried as an
  optional ``trace`` field on every wire op.  Old clients simply omit the
  field; old servers ignore it — the protocol version does not change.
* :class:`SpanBuffer` — a bounded, thread-safe per-process buffer of
  completed spans (an :class:`~repro.obs.trace.EventTracer` ring),
  optionally drained to a JSON-lines file (one per process under
  ``--span-dir``).  Past the cap the oldest span is evicted and counted
  (surfaced as the ``obs.trace.dropped`` counter), so a sampling storm
  cannot exhaust memory.
* :class:`TraceCollector` — loads per-process span files (or in-memory
  span dicts fetched over the wire) and assembles everything recorded
  under one trace id into a single Chrome/Perfetto trace (pid = process,
  tid = connection) and a rendered hop tree.  Assembly orders by **parent
  links, not timestamps** — the processes' clocks are not assumed to be
  synchronized — and stays well-formed under out-of-order arrival,
  duplicate span ids (first write wins) and missing hops (orphaned spans
  attach under a synthesized root).

Sampling is head-based: the caller mints a sampled context for a fraction
of requests (``--trace-sample`` / ``RemoteSession(trace_sample=...)``).
One tail-based escape hatch exists: a query that trips the slow-query-log
threshold flips its context to sampled (see :mod:`repro.obs.slowlog`), so
p99 outliers always link to a trace.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .trace import EventTracer

#: the traceparent version octet we emit; parsers accept any two hex digits
WIRE_VERSION = "00"

_FLAG_SAMPLED = 0x01


def _hex_ok(value: str, width: int) -> bool:
    if len(value) != width:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


class TraceContext:
    """One hop's view of a distributed trace.

    ``trace_id`` (32 hex chars) names the whole request; ``span_id``
    (16 hex chars) names this hop's span; ``parent_id`` is the upstream
    hop's span id (None at the root).  ``sampled`` is mutable on purpose:
    the slow-query log flips it to force-sample threshold outliers.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "sampled")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        sampled: bool = True,
        parent_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled

    @classmethod
    def mint(cls, sampled: bool = True) -> "TraceContext":
        """A fresh root context (new 128-bit trace id, new span id)."""
        return cls(secrets.token_hex(16), secrets.token_hex(8), sampled)

    def child(self) -> "TraceContext":
        """The context for the next hop: same trace, fresh span id, this
        span as the parent.  The receiving process records its work under
        the child and forwards the child onward."""
        return TraceContext(
            self.trace_id, secrets.token_hex(8), self.sampled, self.span_id
        )

    def to_wire(self) -> str:
        """The W3C-traceparent-style string carried on wire headers:
        ``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``."""
        flags = _FLAG_SAMPLED if self.sampled else 0
        return f"{WIRE_VERSION}-{self.trace_id}-{self.span_id}-{flags:02x}"

    @classmethod
    def from_wire(cls, value: object) -> Optional["TraceContext"]:
        """Parse a wire ``trace`` field; None for absent or malformed
        values (a bad context must never fail the request carrying it)."""
        if not isinstance(value, str):
            return None
        parts = value.split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, flags = parts
        if not (
            _hex_ok(version, 2)
            and _hex_ok(trace_id, 32)
            and _hex_ok(span_id, 16)
            and _hex_ok(flags, 2)
        ):
            return None
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id, span_id, bool(int(flags, 16) & _FLAG_SAMPLED))

    def __repr__(self) -> str:
        return f"<TraceContext {self.to_wire()}>"


class HeadSampler:
    """Deterministic head-based rate sampler: of every ``1/rate`` decisions,
    exactly the expected fraction say yes (no RNG, so tests and benchmarks
    are reproducible).  ``rate`` 0 never samples, 1 always does."""

    __slots__ = ("rate", "_accum", "_lock")

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"trace sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._accum = 0.0
        self._lock = threading.Lock()

    def decide(self) -> bool:
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        with self._lock:
            self._accum += self.rate
            if self._accum >= 1.0:
                self._accum -= 1.0
                return True
            return False


class SpanBuffer:
    """A bounded per-process buffer of completed spans.

    Each span is a plain dict (JSON-ready), held in an
    :class:`~repro.obs.trace.EventTracer` ring, which owns the cap, the
    lock, the exact ``recorded``/``dropped`` counts and ``on_drop`` (called
    once per evicted span, letting the server surface loss as a metric).
    With ``path`` set, every record is also appended to that JSON-lines
    file and flushed, so a process killed mid-query still leaves its spans
    on disk for the collector — that is what makes missing-hop traces
    partially assemblable.
    """

    def __init__(
        self,
        process: str,
        limit: int = 20_000,
        path: Optional[str] = None,
        on_drop: Optional[Callable[[], None]] = None,
    ) -> None:
        self.process = process
        self.pid = os.getpid()
        self.path = path
        self._store = EventTracer(limit)
        self._store.on_drop = on_drop
        self._handle = None
        if path is not None:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            # binary: a buffered writer serialises whole-line writes from
            # concurrent handler threads
            self._handle = open(path, "ab")

    def __len__(self) -> int:
        return len(self._store)

    @property
    def recorded(self) -> int:
        return self._store.recorded

    @property
    def dropped(self) -> int:
        return self._store.dropped

    @staticmethod
    def now() -> float:
        """Span timestamps are wall-clock epoch seconds: good enough for
        cross-process display, never trusted for ordering (the collector
        orders by parent links)."""
        return time.time()

    def record(
        self,
        ctx: TraceContext,
        name: str,
        start: float,
        end: Optional[float] = None,
        conn: object = None,
        **args: object,
    ) -> Optional[Dict[str, object]]:
        """Record a completed span for ``ctx`` (its span_id/parent_id pair
        is the tree edge).  ``end=None`` records an instant.  Unsampled
        contexts record nothing."""
        if not ctx.sampled:
            return None
        span: Dict[str, object] = {
            "trace": ctx.trace_id,
            "id": ctx.span_id,
            "parent": ctx.parent_id,
            "name": name,
            "process": self.process,
            "os_pid": self.pid,
            "ts": start,
        }
        if end is not None:
            span["dur"] = max(0.0, end - start)
        if conn is not None:
            span["conn"] = conn
        if args:
            span["args"] = args
        self._store.append(span)
        handle = self._handle
        if handle is not None:
            try:
                handle.write(json.dumps(span, sort_keys=True).encode() + b"\n")
                handle.flush()
            except (OSError, ValueError):
                pass  # the drain file must never fail the request
        return span

    def spans_for(self, trace_id: str) -> List[Dict[str, object]]:
        return [s for s in self._store.snapshot() if s["trace"] == trace_id]

    def snapshot(self) -> List[Dict[str, object]]:
        return self._store.snapshot()

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass


class TraceCollector:
    """Assembles per-process spans into cross-process traces.

    Feed it span dicts (:meth:`add_span`), JSONL files (:meth:`load`) or a
    whole ``--span-dir`` (:meth:`load_dir`); then :meth:`assemble` renders
    one trace id as a Chrome trace and :meth:`tree` as a text hop tree.

    Robustness contract (exercised directly by tests/test_disttrace.py):

    * **out-of-order arrival** — spans may be added in any order;
    * **clock skew** — parent/child edges come from span ids, never from
      comparing timestamps across processes;
    * **duplicate span ids** — the first span recorded under an id wins,
      later duplicates are counted and ignored;
    * **missing hops** — spans whose parent never arrived (a worker killed
      mid-query) are attached under a synthesized ``(unparented)`` root so
      the partial trace still renders and exports.
    """

    def __init__(self) -> None:
        #: trace id -> span id -> span dict (first writer wins)
        self._traces: Dict[str, Dict[str, Dict[str, object]]] = {}
        self.duplicates = 0
        self.malformed = 0

    def add_span(self, span: Dict[str, object]) -> bool:
        trace_id = span.get("trace")
        span_id = span.get("id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            self.malformed += 1
            return False
        by_id = self._traces.setdefault(trace_id, {})
        if span_id in by_id:
            self.duplicates += 1
            return False
        by_id[span_id] = span
        return True

    def add_spans(self, spans: Iterable[Dict[str, object]]) -> int:
        return sum(1 for span in spans if self.add_span(span))

    def load(self, path: str) -> int:
        """Load one process's JSONL span file; unparseable lines (a torn
        final write from a killed process) are counted as malformed."""
        added = 0
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    span = json.loads(line)
                except ValueError:
                    self.malformed += 1
                    continue
                if isinstance(span, dict) and self.add_span(span):
                    added += 1
        return added

    def load_dir(self, directory: str) -> int:
        added = 0
        for entry in sorted(os.listdir(directory)):
            if entry.endswith(".jsonl"):
                added += self.load(os.path.join(directory, entry))
        return added

    def trace_ids(self) -> List[str]:
        return sorted(self._traces)

    def spans(self, trace_id: str) -> List[Dict[str, object]]:
        return list(self._traces.get(trace_id, {}).values())

    def processes(self, trace_id: str) -> List[str]:
        """The distinct process names that contributed spans to a trace."""
        return sorted(
            {
                str(span.get("process", "?"))
                for span in self._traces.get(trace_id, {}).values()
            }
        )

    # -- tree assembly (parent links, not timestamps) -----------------------

    def _edges(
        self, trace_id: str
    ) -> Tuple[List[str], Dict[str, List[str]], Dict[str, Dict[str, object]]]:
        by_id = self._traces.get(trace_id, {})
        children: Dict[str, List[str]] = {}
        roots: List[str] = []
        for span_id, span in by_id.items():
            parent = span.get("parent")
            if isinstance(parent, str) and parent in by_id:
                children.setdefault(parent, []).append(span_id)
            else:
                # a true root (parent None) or an orphan whose parent hop
                # never reported (killed worker): both render at top level
                roots.append(span_id)

        def order(ids: List[str]) -> List[str]:
            # stable, skew-immune ordering: within one process a clock is
            # self-consistent, so (process, ts) only ranks siblings that
            # share a process by time and never compares across clocks
            return sorted(
                ids,
                key=lambda sid: (
                    str(by_id[sid].get("process", "")),
                    float(by_id[sid].get("ts", 0.0) or 0.0),
                    sid,
                ),
            )

        for parent in children:
            children[parent] = order(children[parent])
        return order(roots), children, by_id

    def tree(self, trace_id: str) -> str:
        """A rendered hop tree, e.g. for the shell's ``@trace <id>``."""
        roots, children, by_id = self._edges(trace_id)
        if not by_id:
            return f"trace {trace_id}: no spans"
        lines = [f"trace {trace_id} ({len(by_id)} spans)"]

        def walk(span_id: str, depth: int) -> None:
            span = by_id[span_id]
            dur = span.get("dur")
            timing = f" {float(dur) * 1e3:.2f}ms" if dur is not None else ""
            conn = span.get("conn")
            where = f"{span.get('process', '?')}"
            if conn is not None:
                where += f"/{conn}"
            orphan = ""
            parent = span.get("parent")
            if isinstance(parent, str) and parent not in by_id and depth == 0:
                orphan = " (orphaned: parent hop missing)"
            lines.append(
                "  " * depth
                + f"- {span.get('name', '?')} [{where}]{timing}{orphan}"
            )
            for child in children.get(span_id, ()):
                walk(child, depth + 1)

        for root in roots:
            walk(root, 0)
        return "\n".join(lines)

    def assemble(self, trace_id: str) -> Dict[str, object]:
        """One trace id as a Chrome/Perfetto trace-event JSON object.

        pid = contributing process (named via metadata events), tid = the
        connection a span was recorded under.  Timestamps are rebased to
        microseconds from the earliest span so the trace loads at time 0;
        cross-process skew shifts lanes against each other but the parent
        links (exported as ``args.span``/``args.parent``) stay exact.
        """
        roots, children, by_id = self._edges(trace_id)
        spans = list(by_id.values())
        origin = min(
            (float(s.get("ts", 0.0) or 0.0) for s in spans), default=0.0
        )
        pids: Dict[str, int] = {}
        tids: Dict[Tuple[int, str], int] = {}
        trace_events: List[Dict[str, object]] = []
        for process in sorted({str(s.get("process", "?")) for s in spans}):
            pids[process] = len(pids) + 1
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[process],
                    "tid": 0,
                    "args": {"name": process},
                }
            )

        def depth_order(span_id: str, depth: int):
            yield span_id, depth
            for child in children.get(span_id, ()):
                yield from depth_order(child, depth + 1)

        ordered: List[Tuple[str, int]] = []
        for root in roots:
            ordered.extend(depth_order(root, 0))
        for span_id, depth in ordered:
            span = by_id[span_id]
            process = str(span.get("process", "?"))
            pid = pids[process]
            conn = str(span.get("conn", "-"))
            tid_key = (pid, conn)
            if tid_key not in tids:
                tids[tid_key] = len([k for k in tids if k[0] == pid]) + 1
            entry: Dict[str, object] = {
                "name": str(span.get("name", "?")),
                "cat": "disttrace",
                "ph": "X" if "dur" in span else "i",
                "ts": round(
                    (float(span.get("ts", 0.0) or 0.0) - origin) * 1e6, 3
                ),
                "pid": pid,
                "tid": tids[tid_key],
                "args": {
                    "span": span_id,
                    "parent": span.get("parent"),
                    "depth": depth,
                },
            }
            if "dur" in span:
                entry["dur"] = round(float(span["dur"]) * 1e6, 3)
            else:
                entry["s"] = "t"
            extra = span.get("args")
            if isinstance(extra, dict):
                entry["args"].update(extra)
            trace_events.append(entry)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "trace_id": trace_id,
                "processes": self.processes(trace_id),
                "duplicate_spans": self.duplicates,
                "malformed_spans": self.malformed,
            },
        }

    def write_chrome_trace(self, trace_id: str, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.assemble(trace_id), handle)
