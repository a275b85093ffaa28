"""The flight recorder: an always-on, bounded ring of recent evaluation and
storage events, dumped to a JSON-lines file when something goes wrong.

A profiler answers "what did this query cost?" — but it must be installed
*before* the interesting query runs.  Production failures arrive unannounced:
a storage fault mid-writeback, a runaway query tripping its resource limits.
The :class:`FlightRecorder` closes that gap the way an aircraft recorder
does: it owns one consumer of the context's
:class:`~repro.obs.observer.Observer` — a ring (an
:class:`~repro.obs.trace.EventTracer`) holding only the last ``capacity``
events.  Memory is bounded no matter how long the session runs, and the
per-event cost is one clock read plus one locked append — cheap enough to
leave enabled on a live server.  A profiler attached to the same context
feeds the ring too; profiling never blinds it.

Two triggers write the ring out as a post-mortem dump (when ``dump_path``
is configured):

* ``Observer.on_fault(point, action)`` — called by
  :meth:`repro.faults.FaultInjector.check` *before* it raises an injected
  crash/failure, so the dump's final events include the arrival instant at
  the faulting injection point;
* ``Observer.on_error(exc)`` — called by
  :class:`~repro.api.session.QueryResult` when a pull dies with a
  :class:`~repro.errors.StorageError` or
  :class:`~repro.errors.ResourceLimitError`.

Install via ``session.enable_flight_recorder(...)`` (which also makes the
observer the storage fault injector's) or serve the live ring over HTTP at
``/debug/flight`` (:mod:`repro.obs.exposition`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .trace import EventTracer


class FlightRecorder:
    """The owner of the flight ring.

    ``capacity`` bounds the ring; ``dump_path`` enables automatic
    post-mortem dumps (None = record only, dump on demand via
    :meth:`dump`).
    """

    def __init__(self, capacity: int = 4096, dump_path: Optional[str] = None):
        self.ring = EventTracer(limit=capacity)  # rejects capacity < 1
        self.capacity = capacity
        self.dump_path = dump_path
        self.dump_count = 0
        self.last_dump_reason: Optional[str] = None
        #: the distributed trace context active when the next dump fires
        #: (repro.obs.disttrace) — the server mirrors the session's
        #: ``current_trace`` here so a crash dump's header names the trace
        #: id of the request that died; None when untraced
        self.current_trace = None

    def __len__(self) -> int:
        return len(self.ring)

    @property
    def recorded(self) -> int:
        """Events recorded over the recorder's lifetime (exact)."""
        return self.ring.recorded

    def event(self, name: str, cat: str = "eval", **args) -> None:
        self.ring.instant(name, cat, **args)

    def span(self, name: str, cat: str = "eval", **args):
        return self.ring.span(name, cat, **args)

    def clear(self) -> None:
        self.ring.clear()

    # -- snapshots and dumps --------------------------------------------------

    def snapshot(self) -> List[Dict[str, object]]:
        """The ring, oldest first, as JSON-safe dicts with timestamps
        rebased to microseconds from the oldest retained event."""
        return self.ring.records()

    def to_jsonl(self, reason: str = "manual") -> str:
        """A header line (dump metadata) followed by one JSON object per
        retained event, oldest first."""
        header = {
            "flight": True,
            "reason": reason,
            "capacity": self.capacity,
            "recorded_total": self.recorded,
            "wall_time": time.time(),
        }
        ctx = self.current_trace
        if ctx is not None:
            header["trace"] = ctx.trace_id
        return self.ring.to_jsonl(header)

    def dump(self, path: Optional[str] = None, reason: str = "manual"):
        """Write the ring to ``path`` (default: the configured
        ``dump_path``).  Returns the path written, or None when no target
        is configured or the write itself failed — a flight recorder must
        never turn a crash it is documenting into a second crash."""
        target = path if path is not None else self.dump_path
        if target is None:
            return None
        try:
            payload = self.to_jsonl(reason)
            with open(target, "w") as handle:
                handle.write(payload)
        except OSError:
            return None
        self.dump_count += 1
        self.last_dump_reason = reason
        return target

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder {len(self.ring)}/{self.capacity} events,"
            f" {self.dump_count} dumps>"
        )
