"""Deterministic fault injection for the storage manager.

The paper delegates transactions and crash recovery to the EXODUS toolkit
(Section 2: *"Transactions and concurrency control are supported by the
EXODUS toolkit, and thus by CORAL"*), so our EXODUS stand-in has to earn
that contract.  This module provides the machinery the crash tests use to
prove it: a :class:`FaultInjector` that the storage layers consult at named
*injection points*, with deterministic schedules of the form "crash at the
Nth write", "fail the Kth fsync with an I/O error", or "tear this page write
after B bytes".

Injection points (all consulted via :meth:`FaultInjector.check`):

========================== ====================================================
point                      where it fires
========================== ====================================================
``disk.read_page``         :meth:`DiskFile.read_page`, before the read
``disk.write_page``        :meth:`DiskFile.write_page`, before the write
                           (supports ``tear_at``: a partial write, then crash)
``disk.allocate``          :meth:`DiskFile.allocate_page`, before extending
``disk.sync``              :meth:`DiskFile.sync`, before the fsync
``disk.truncate``          :meth:`DiskFile.truncate`, before shrinking
``journal.record``         :class:`UndoJournal` entry append, before writing
                           (supports ``tear_at``: a torn journal entry)
``journal.sync``           the journal fsync after each entry
``buffer.writeback``       :class:`BufferPool` eviction write-back
``buffer.flush``           each dirty write in :meth:`BufferPool.flush_all`
``server.write_page``      :meth:`StorageServer.write_page`, before
                           before-image logging
``server.commit``          :meth:`commit_transaction`, before the final sync
``server.commit.cleanup``  after the commit sync, before journal removal
``server.abort``           :meth:`abort_transaction`, before undo starts
``server.recover.start``   recovery, after the journal was found
``server.recover.entry``   recovery, before applying each before-image
``server.recover.cleanup`` recovery, before the recovered journal is removed
``net.accept``             :mod:`repro.server`, after accepting a connection
``net.read``               before reading a request frame from a client
``net.write``              before writing a response frame to a client
``repl.log``               :class:`~repro.replication.Changelog` append, before
                           the record reaches the changelog (primary side)
``repl.ship``              the primary's ship loop, before sending one
                           ``REPL_SHIP`` frame to a replica
``repl.ack``               the primary's ship loop, before waiting for the
                           replica's ``REPL_ACK``
``repl.apply``             the replica, before applying one shipped record
========================== ====================================================

The three ``net.*`` points sit at the query server's I/O boundaries
(:mod:`repro.server`); a *fail* there simulates a client that died or a
socket reset mid-stream — the server must drop only that connection (and
free its cursors) while continuing to serve everyone else.

A *crash* raises :class:`SimulatedCrash`; the test harness abandons the
server object (exactly what a process kill does to in-memory state) and
reopens the directory, which runs recovery.  A *fail* raises ``OSError``
inside the storage layer, exercising the layer's error wrapping (every
``OSError`` must surface as :class:`~repro.errors.StorageError`).  A *tear*
performs a prefix of the write and then crashes — the torn-page / torn-log
cases real disks produce on power loss.

The injector also counts every point it passes through (``counts``), which
is how the crash sweep enumerates its schedules: run the workload once with
a passive injector to learn how often each point is reached, then re-run it
once per (point, hit) pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Every named injection point, in stack order.  These names double as the
#: storage *trace event* names emitted by :mod:`repro.obs` — a profiler
#: installs itself as the injector's ``observer`` and receives one callback
#: per arrival, so a Chrome trace and a crash schedule share one vocabulary
#: (docs/OBSERVABILITY.md cross-links the two).
INJECTION_POINTS = (
    "disk.read_page",
    "disk.write_page",
    "disk.allocate",
    "disk.sync",
    "disk.truncate",
    "journal.record",
    "journal.sync",
    "buffer.writeback",
    "buffer.flush",
    "server.write_page",
    "server.commit",
    "server.commit.cleanup",
    "server.abort",
    "server.recover.start",
    "server.recover.entry",
    "server.recover.cleanup",
    "net.accept",
    "net.read",
    "net.write",
    "repl.log",
    "repl.ship",
    "repl.ack",
    "repl.apply",
)


class SimulatedCrash(Exception):
    """An injected process crash.

    Deliberately *not* a :class:`~repro.errors.CoralError`: application code
    catching ``CoralError`` must never swallow a simulated crash, just as it
    could not swallow a real ``kill -9``.
    """


class _Rule:
    """One scheduled fault: fire ``action`` on the ``hit``-th arrival."""

    __slots__ = ("point", "hit", "action", "keep_bytes", "message", "fired")

    def __init__(
        self,
        point: str,
        hit: int,
        action: str,
        keep_bytes: int = 0,
        message: str = "",
    ) -> None:
        if hit < 1:
            raise ValueError(f"fault hit counts are 1-based, got {hit}")
        self.point = point
        self.hit = hit
        self.action = action
        self.keep_bytes = keep_bytes
        self.message = message
        self.fired = False

    def __repr__(self) -> str:
        return f"<{self.action}@{self.point}#{self.hit}>"


class FaultInjector:
    """Named injection points with deterministic one-shot schedules.

    With no schedules installed the injector only counts arrivals, so a
    single (shared) instance can always be threaded through the storage
    stack at negligible cost.
    """

    def __init__(self) -> None:
        #: arrivals per point, over the injector's lifetime
        self.counts: Dict[str, int] = {}
        self._rules: Dict[str, List[_Rule]] = {}
        #: optional observability hook (a repro.obs Observer): receives
        #: ``storage_event(point)`` per arrival while attached; None = off
        self.observer = None

    # -- scheduling ----------------------------------------------------------

    def crash_at(self, point: str, hit: int = 1) -> "FaultInjector":
        """Simulate a process crash the ``hit``-th time ``point`` is reached."""
        self._add(_Rule(point, hit, "crash"))
        return self

    def fail_at(
        self, point: str, hit: int = 1, message: str = "injected I/O failure"
    ) -> "FaultInjector":
        """Raise ``OSError`` (e.g. a failed fsync or a full disk) at the
        ``hit``-th arrival; the storage layer must wrap it as StorageError."""
        self._add(_Rule(point, hit, "fail", message=message))
        return self

    def tear_at(
        self, point: str, hit: int = 1, keep_bytes: int = 0
    ) -> "FaultInjector":
        """Tear the ``hit``-th write at ``point``: only the first
        ``keep_bytes`` bytes reach the file, then the process crashes."""
        self._add(_Rule(point, hit, "tear", keep_bytes=keep_bytes))
        return self

    def _add(self, rule: _Rule) -> None:
        self._rules.setdefault(rule.point, []).append(rule)

    def reset(self) -> None:
        """Clear all schedules and counters."""
        self.counts.clear()
        self._rules.clear()

    # -- the hook the storage layers call ------------------------------------

    def check(self, point: str) -> Optional[int]:
        """Record an arrival at ``point`` and apply any scheduled fault.

        Returns ``None`` normally; returns the ``keep_bytes`` of a scheduled
        *tear* so the caller (a write path) performs the partial write and
        raises :class:`SimulatedCrash` itself.  Raises
        :class:`SimulatedCrash` for a *crash* schedule and ``OSError`` for a
        *fail* schedule.
        """
        count = self.counts.get(point, 0) + 1
        self.counts[point] = count
        if self.observer is not None:
            self.observer.storage_event(point)
        rules = self._rules.get(point)
        if not rules:
            return None
        for rule in rules:
            if rule.fired or rule.hit != count:
                continue
            rule.fired = True
            if self.observer is not None:
                # an attached flight recorder (repro.obs.flight) dumps its
                # ring here, *before* the fault propagates, so the
                # post-mortem's last events include this arrival
                self.observer.on_fault(point, rule.action)
            if rule.action == "crash":
                raise SimulatedCrash(f"injected crash at {point} (hit {count})")
            if rule.action == "fail":
                raise OSError(f"{rule.message} at {point} (hit {count})")
            return rule.keep_bytes  # tear: caller tears the write
        return None

    def pending(self) -> List[_Rule]:
        """Schedules that have not fired yet (useful for sweep diagnostics)."""
        return [
            rule
            for rules in self._rules.values()
            for rule in rules
            if not rule.fired
        ]

    def __repr__(self) -> str:
        scheduled = sum(len(rules) for rules in self._rules.values())
        return f"<FaultInjector {scheduled} schedules, {len(self.counts)} points seen>"


#: A process-wide passive injector: storage objects constructed without an
#: explicit injector share this one, so the hooks are always live (and the
#: counters still observable) without any per-test plumbing.
PASSIVE = FaultInjector()
