"""repro.obs — the observability subsystem: metrics, query profiling, and
structured event tracing across evaluation and storage.

One observer, one event buffer, one exporter:

* :mod:`repro.obs.observer` — the :class:`~repro.obs.observer.Observer`
  that ``ctx.obs`` and the fault injector point at while anything is
  attached; it implements every evaluator/storage hook once and feeds three
  fixed consumers: the flight ring, a profile's event buffer, and a
  profile's aggregates;
* :mod:`repro.obs.trace` — :class:`EventTracer`, the one thread-safe
  bounded ring (the flight ring, a profile's trace, the server's request
  log and :class:`SpanBuffer` are all one), with the JSON-lines and Chrome
  ``chrome://tracing`` exporters;
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, owner of the ring and
  its post-mortem dumps;
* :mod:`repro.obs.profiler` — :class:`Profiler`, the context manager
  ``session.profile()`` returns, producing a :class:`QueryProfile`;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with labeled
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` (fixed bucket
  boundaries), rendered by :mod:`repro.obs.exposition`.

Everything hot is gated behind ``ctx.obs is None`` single-branch guards;
see docs/OBSERVABILITY.md for metric names and the span taxonomy.
"""

from .disttrace import HeadSampler, SpanBuffer, TraceCollector, TraceContext
from .exposition import TelemetryServer, render_prometheus
from .flight import FlightRecorder
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelCapper,
    MetricError,
    MetricsRegistry,
    SIZE_BUCKETS,
    TIME_BUCKETS,
)
from .profiler import Profiler, QueryProfile
from .slowlog import SlowQueryLog
from .trace import EventTracer

__all__ = [
    "Counter",
    "EventTracer",
    "FlightRecorder",
    "Gauge",
    "HeadSampler",
    "Histogram",
    "LabelCapper",
    "MetricError",
    "MetricsRegistry",
    "Profiler",
    "QueryProfile",
    "SIZE_BUCKETS",
    "SlowQueryLog",
    "SpanBuffer",
    "TIME_BUCKETS",
    "TelemetryServer",
    "TraceCollector",
    "TraceContext",
    "render_prometheus",
]
