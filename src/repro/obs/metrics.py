"""The metrics registry: typed, labeled counters for the whole system.

Brass & Stephan (*Bottom-Up Evaluation of Datalog*, PAPERS.md) compare
evaluation strategies via rule-application and tuple-derivation counts;
Behrend's uniform fixpoint treatment motivates iteration-level accounting.
This module makes those counters first-class: a :class:`MetricsRegistry`
holds named metrics of three kinds —

* :class:`Counter` — a monotonically increasing count (rule applications,
  tuples derived, buffer misses);
* :class:`Gauge` — a value that can go both ways (live subgoal stack depth,
  pool occupancy);
* :class:`Histogram` — observations bucketed against *fixed* boundaries
  (per-rule evaluation time, iteration sizes), so merging and rendering
  never re-bins.

Metrics may declare label names (``("rule",)``, ``("pred",)``,
``("file",)``); each distinct label tuple gets its own time series.  Hot
paths bind a label tuple once (:meth:`Counter.labels`) and increment a cell
— one dict hit at bind time, one float add per event afterwards.

Cost discipline: the evaluator and storage layers never consult a registry
directly.  They hold an optional observer (``ctx.obs``, installed by
:class:`~repro.obs.profiler.Profiler`) and guard every hook with a single
``if obs is not None`` branch; with observability off that branch is the
*entire* cost.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from ..errors import CoralError


class MetricError(CoralError):
    """Registry misuse: kind mismatch, bad labels, unknown metric."""


#: default histogram boundaries for durations in seconds (powers of ~4 from
#: 100 microseconds to ~1.6 s; the +inf bucket is implicit)
TIME_BUCKETS = (0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384)

#: default boundaries for sizes/counts (powers of 4; +inf implicit)
SIZE_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384)


class _BoundCounter:
    """A counter cell bound to one label tuple: the hot-path handle."""

    __slots__ = ("_cell",)

    def __init__(self, cell: List[float]) -> None:
        self._cell = cell

    def inc(self, amount: float = 1) -> None:
        self._cell[0] += amount

    @property
    def value(self) -> float:
        return self._cell[0]


class Counter:
    """A monotonically increasing metric, optionally labeled."""

    kind = "counter"
    __slots__ = ("name", "help", "labelnames", "_cells")

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._cells: Dict[PyTuple[str, ...], List[float]] = {}

    def labels(self, *labelvalues: str) -> _BoundCounter:
        if len(labelvalues) != len(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {labelvalues!r}"
            )
        cell = self._cells.get(labelvalues)
        if cell is None:
            cell = self._cells[labelvalues] = [0.0]
        return _BoundCounter(cell)

    def inc(self, amount: float = 1, *labelvalues: str) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        self.labels(*labelvalues).inc(amount)

    def value(self, *labelvalues: str) -> float:
        cell = self._cells.get(labelvalues)
        return cell[0] if cell else 0.0

    def collect(self) -> Dict[PyTuple[str, ...], float]:
        return {labels: cell[0] for labels, cell in self._cells.items()}


class Gauge:
    """A metric that can rise and fall."""

    kind = "gauge"
    __slots__ = ("name", "help", "labelnames", "_cells")

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._cells: Dict[PyTuple[str, ...], List[float]] = {}

    def _cell(self, labelvalues: PyTuple[str, ...]) -> List[float]:
        if len(labelvalues) != len(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {labelvalues!r}"
            )
        cell = self._cells.get(labelvalues)
        if cell is None:
            cell = self._cells[labelvalues] = [0.0]
        return cell

    def set(self, value: float, *labelvalues: str) -> None:
        self._cell(labelvalues)[0] = value

    def inc(self, amount: float = 1, *labelvalues: str) -> None:
        self._cell(labelvalues)[0] += amount

    def dec(self, amount: float = 1, *labelvalues: str) -> None:
        self._cell(labelvalues)[0] -= amount

    def value(self, *labelvalues: str) -> float:
        cell = self._cells.get(labelvalues)
        return cell[0] if cell else 0.0

    def collect(self) -> Dict[PyTuple[str, ...], float]:
        return {labels: cell[0] for labels, cell in self._cells.items()}


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets  # one extra for +inf
        self.sum = 0.0
        self.count = 0


class Histogram:
    """Observations bucketed against fixed boundaries.

    ``boundaries`` are upper-inclusive bucket edges; an implicit final
    bucket collects everything above the last edge.  Fixed edges mean two
    histograms of the same metric are mergeable bucket-by-bucket — the
    property the benchmark trajectory relies on.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labelnames", "boundaries", "_series")

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        boundaries: Sequence[float] = TIME_BUCKETS,
    ) -> None:
        edges = tuple(boundaries)
        if not edges or list(edges) != sorted(edges):
            raise MetricError(
                f"histogram {name} needs sorted, non-empty boundaries"
            )
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.boundaries = edges
        self._series: Dict[PyTuple[str, ...], _HistogramSeries] = {}

    def _get(self, labelvalues: PyTuple[str, ...]) -> _HistogramSeries:
        if len(labelvalues) != len(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {labelvalues!r}"
            )
        series = self._series.get(labelvalues)
        if series is None:
            series = self._series[labelvalues] = _HistogramSeries(
                len(self.boundaries) + 1
            )
        return series

    def observe(self, value: float, *labelvalues: str) -> None:
        series = self._get(labelvalues)
        # bisect_left keeps edges upper-inclusive (Prometheus 'le' style):
        # a value equal to an edge lands in that edge's bucket
        series.bucket_counts[bisect_left(self.boundaries, value)] += 1
        series.sum += value
        series.count += 1

    def percentile(self, q: float, *labelvalues: str) -> float:
        """An estimate of the ``q``-quantile (``0 < q <= 1``) by linear
        interpolation inside the bucket holding the target rank — the same
        estimator as Prometheus's ``histogram_quantile``.  Values above the
        last edge are clamped to it (the +inf bucket has no width to
        interpolate across); an empty series estimates 0.0."""
        if not 0.0 < q <= 1.0:
            raise MetricError(f"percentile wants 0 < q <= 1, got {q}")
        series = self._series.get(labelvalues)
        if series is None or series.count == 0:
            return 0.0
        target = q * series.count
        boundaries = self.boundaries
        cumulative = 0
        for index, bucket_count in enumerate(series.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                if index >= len(boundaries):
                    return float(boundaries[-1])
                upper = float(boundaries[index])
                lower = float(boundaries[index - 1]) if index else min(0.0, upper)
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return float(boundaries[-1])

    def snapshot(self, *labelvalues: str) -> Dict[str, object]:
        series = self._get(labelvalues)
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(series.bucket_counts),
            "sum": series.sum,
            "count": series.count,
            "p50": self.percentile(0.50, *labelvalues),
            "p90": self.percentile(0.90, *labelvalues),
            "p99": self.percentile(0.99, *labelvalues),
        }

    def collect(self) -> Dict[PyTuple[str, ...], Dict[str, object]]:
        return {labels: self.snapshot(*labels) for labels in self._series}


#: the one label value a :class:`LabelCapper` collapses new values into
OVERFLOW_LABEL = "other"


class LabelCapper:
    """Bound the cardinality of one labeled counter family.

    Metrics labeled by uncontrolled input (client host, query predicate)
    are a cardinality bomb: a million distinct clients would mint a million
    time series and an unboundedly large ``/metrics`` payload.  The capper
    admits the first ``k`` distinct label values it sees and collapses
    every later new value into a single :data:`OVERFLOW_LABEL` bucket,
    so the family can never exceed ``k + 1`` series.  First-come admission
    keeps the steady long-lived labels (a fleet's real clients, an
    application's hot predicates) and sheds the churn.
    """

    __slots__ = ("counter", "k", "overflowed", "_seen", "_lock")

    def __init__(self, counter, k: int = 32) -> None:
        if k < 1:
            raise MetricError(f"label cap must be >= 1, got {k}")
        self.counter = counter
        self.k = k
        #: label values collapsed into the overflow bucket so far
        self.overflowed = 0
        self._seen: set = set()
        self._lock = threading.Lock()

    def inc(self, amount: float = 1, label: str = "") -> None:
        with self._lock:
            if label not in self._seen:
                if len(self._seen) < self.k:
                    self._seen.add(label)
                else:
                    self.overflowed += 1
                    label = OVERFLOW_LABEL
        self.counter.inc(amount, label)


class MetricsRegistry:
    """Named metrics, created on first use and type-checked thereafter."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _register(self, factory, name: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory(name, **kwargs)
            return metric
        if not isinstance(metric, factory):
            raise MetricError(
                f"metric {name} already registered as {metric.kind}"
            )
        labelnames = tuple(kwargs.get("labelnames", ()))
        if labelnames != metric.labelnames:
            raise MetricError(
                f"metric {name} already registered with labels "
                f"{metric.labelnames}, re-registration asked for {labelnames}"
            )
        boundaries = kwargs.get("boundaries")
        if boundaries is not None and tuple(boundaries) != metric.boundaries:
            raise MetricError(
                f"histogram {name} already registered with boundaries "
                f"{metric.boundaries}, re-registration asked for "
                f"{tuple(boundaries)}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help=help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help=help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        boundaries: Sequence[float] = TIME_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help=help, labelnames=labelnames,
            boundaries=boundaries,
        )

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def metrics(self) -> List[object]:
        """The live metric objects, sorted by name — the exposition
        renderer works from these (label tuples intact) rather than from
        :meth:`collect`, whose JSON-friendly keys are lossy."""
        return [metric for _, metric in sorted(self._metrics.items())]

    def collect(self) -> Dict[str, Dict[str, object]]:
        """Everything, JSON-friendly: label tuples become '|'-joined keys."""
        out: Dict[str, Dict[str, object]] = {}
        for name, metric in sorted(self._metrics.items()):
            out[name] = {
                "kind": metric.kind,
                "help": metric.help,
                "labels": list(metric.labelnames),
                "values": {
                    "|".join(labels) if labels else "": value
                    for labels, value in metric.collect().items()
                },
            }
        return out
