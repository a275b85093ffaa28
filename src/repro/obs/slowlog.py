"""The slow-query log: queries whose evaluation exceeds a threshold are
appended, with their plan, to a JSON-lines file an operator can tail.

Each entry is one JSON object::

    {"wall_seconds": 1.73, "query": "path(1, X)", "answers": 212,
     "finished": true, "eval": {...EvalStats deltas...},
     "plan": "EXPLAIN path(1, X)\\n+- predicate: ...", "ts": 1754500000.0}

``wall_seconds`` counts only time spent *inside* evaluation (the generator
frames between pulls), not time the consumer sat on a lazy cursor — a
client that fetches one answer per minute does not make a fast query
"slow".  ``finished`` distinguishes a drained cursor from one abandoned
mid-stream.  The plan is the same rendering as ``Session.explain`` (module,
rewriting, SCC order, per-rule join order); with ``analyze=True`` the query
is re-run under a trace-free profiler and the entry gains a ``profile``
section with per-rule applications/derived/duplicates/time.  The re-run is
guarded by a reentrancy flag so the analysis query can never log itself.

When a distributed trace context is active on the session (the server sets
``session.current_trace`` around each traced request — docs/OBSERVABILITY.md),
the entry also carries a ``trace`` field with the trace id and the context
is flipped to sampled, so a p99 outlier always links to its cross-process
trace even when head-based sampling would have skipped it.

Wire it up with ``session.enable_slow_query_log(path, threshold=...)`` or
``python -m repro.server --slow-query-log FILE --slow-query-seconds S``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Optional

#: a logged plan is cut to this many characters
MAX_PLAN_CHARS = 8000


class SlowQueryLog:
    """Append-only JSON-lines log of queries slower than ``threshold``."""

    def __init__(
        self,
        path: str,
        threshold: float = 1.0,
        analyze: bool = False,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"slow-query threshold must be >= 0, got {threshold}")
        self.path = path
        self.threshold = threshold
        self.analyze = analyze
        self.entries_written = 0
        self.last_entry: Optional[Dict[str, object]] = None
        self._lock = threading.Lock()
        self._busy = False

    def observe(
        self,
        session,
        literal,
        wall_seconds: float,
        answers: int,
        eval_delta: Dict[str, int],
        finished: bool,
    ) -> Optional[Dict[str, object]]:
        """Called by the session when a query's cursor closes.  Returns the
        entry written, or None when the query was fast enough (or this is
        the log's own analysis re-run)."""
        if wall_seconds < self.threshold or self._busy:
            return None
        from ..errors import CoralError
        from ..explain.plan import explain_literal

        entry: Dict[str, object] = {
            "ts": time.time(),
            "query": str(literal),
            "wall_seconds": wall_seconds,
            "answers": answers,
            "finished": finished,
            "eval": {k: v for k, v in eval_delta.items() if v},
        }
        # distributed tracing (repro.obs.disttrace): a query slow enough to
        # log is always worth a trace — tag the entry with the active trace
        # id and flip the context to sampled so every hop that sees it
        # afterwards records its spans (tail-based forced sampling)
        ctx = getattr(session, "current_trace", None)
        if ctx is not None:
            entry["trace"] = ctx.trace_id
            ctx.sampled = True
        self._busy = True  # the plan (and any analyze re-run) must not re-log
        try:
            plan = explain_literal(session, literal, analyze=self.analyze)
            entry["plan"] = plan[:MAX_PLAN_CHARS]
        except CoralError as exc:
            entry["plan_error"] = str(exc)
        finally:
            self._busy = False
        with self._lock:
            try:
                with open(self.path, "a") as handle:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
            except OSError:
                return None  # the log must never fail the query it records
            self.entries_written += 1
            self.last_entry = entry
        return entry

    def __repr__(self) -> str:
        return (
            f"<SlowQueryLog {self.path!r} threshold={self.threshold}s"
            f" entries={self.entries_written}>"
        )
