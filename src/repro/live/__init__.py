"""Live queries: incremental subscriptions over maintained views.

See :mod:`repro.live.view` for the machinery, docs/LIVE.md for the wire
protocol and delivery semantics, and docs/INTERNALS.md ("Capabilities")
for which goals are refused.
"""

from .view import Delta, LiveStats, LiveView, LiveViewManager

__all__ = ["Delta", "LiveStats", "LiveView", "LiveViewManager"]
