"""The supervised worker fleet: N ``CoralServer`` processes, each owning a
private :class:`~repro.api.Session` and (optionally) a private storage
directory.

The pool is deliberately *not* the router: it knows how to boot, watch,
restart, and interrogate workers, and nothing about predicates or cursors.
The router (:mod:`repro.sharding.router`) asks it two questions — "where is
worker *i*?" (:meth:`WorkerPool.address_of`, which raises the retriable
:class:`~repro.errors.WorkerRestartingError` while a worker is down) and
"what does the fleet look like?" (:meth:`WorkerPool.fetch_stats`, the raw
material for aggregated STATS and worker-labelled ``/metrics``).

Supervision mirrors :class:`repro.replication.replica.ReplicationClient`'s
redial loop: a monitor thread polls each child once per ``heartbeat``
interval; a dead process is restarted after a capped exponential backoff
(so a crash-looping worker cannot consume the machine), and every restart
bumps the worker's *generation* — the router uses generations the same way
:class:`~repro.client.RemoteSession` uses link generations, to know that
cursors opened against the previous incarnation are gone.

Two modes:

* **spawn** (production, the CLI's ``--workers N``): each worker is
  ``python -m repro.server --port 0`` as a child process; the pool parses
  the ``coral-server listening on HOST:PORT`` line the server prints.
* **static endpoints** (tests): the workers are pre-existing servers —
  typically in-process :class:`~repro.server.CoralServer` instances — and
  the pool only handshakes and heartbeats them.

Either way, after boot the pool performs the ``WORKER_HELLO`` handshake,
branding the server with its shard index so its own STATS/metrics identify
it, and learning its pid (what the chaos suite SIGKILLs).

Every conversation with a worker is a one-shot
:func:`repro.server.protocol.dial` + :func:`~repro.server.protocol.roundtrip`
— the same pair the router's upstream links and the replication client use
— so a worker's refusal arrives under its own error class; what the pool
adds is only the policy (retry until :data:`START_TIMEOUT`, flip to down,
back off).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from ..errors import CoralError, ProtocolError, WorkerRestartingError
from ..server.protocol import dial, roundtrip

#: the stdout line ``python -m repro.server`` prints once it accepts
_LISTENING = re.compile(
    r"coral-server listening on ([^\s:]+):(\d+)"
)

#: seconds a worker has to report its address, and then to answer the
#: handshake
START_TIMEOUT = 30.0

#: the name the handshake gives workers for the process that supervises them
ROUTER_NAME = "router"


def _ask(
    address: PyTuple[str, int], timeout: float, header
) -> Dict[str, object]:
    """Dial a worker, make one request, hang up; the response header."""
    with dial(address, timeout, "repro.sharding/1") as sock:
        return roundtrip(sock, header)[0]


class WorkerHandle:
    """Everything the pool knows about one worker slot."""

    __slots__ = (
        "index", "proc", "address", "pid", "generation", "restarts",
        "state", "last_stats", "last_seen", "next_restart_at", "_backoff",
        "_reader",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[PyTuple[str, int]] = None
        self.pid: Optional[int] = None
        #: bumped on every (re)boot; cursors belong to one generation
        self.generation = 0
        self.restarts = 0
        #: "starting" | "up" | "down" | "stopped"
        self.state = "starting"
        self.last_stats: Optional[Dict[str, object]] = None
        self.last_seen = 0.0
        self.next_restart_at = 0.0
        self._backoff = 0.0
        self._reader: Optional[threading.Thread] = None

    def describe(self) -> Dict[str, object]:
        """The ``workers`` entry STATS/@workers renders for this slot."""
        return {
            "state": self.state,
            "address": (
                f"{self.address[0]}:{self.address[1]}" if self.address else None
            ),
            "pid": self.pid,
            "generation": self.generation,
            "restarts": self.restarts,
        }


class WorkerPool:
    """Boot, supervise, and interrogate ``count`` shard workers.

    ``endpoints`` switches to static mode (no child processes); otherwise
    each worker is spawned as ``python -m repro.server --port 0`` plus
    ``worker_args``, with ``--data-dir <data_dir>/worker-<i>`` when
    ``data_dir`` is given — disjoint directories are what make the shards'
    storage truly private.
    """

    def __init__(
        self,
        count: int,
        *,
        endpoints: Optional[Sequence[PyTuple[str, int]]] = None,
        data_dir: Optional[str] = None,
        worker_args: Sequence[str] = (),
        heartbeat: float = 1.0,
        backoff: float = 0.2,
        backoff_cap: float = 5.0,
        io_timeout: float = 10.0,
    ) -> None:
        if count < 1:
            raise ProtocolError(f"a worker pool needs >= 1 worker, got {count}")
        if endpoints is not None and len(endpoints) != count:
            raise ProtocolError(
                f"{count} workers but {len(endpoints)} static endpoints"
            )
        self.count = count
        self.static = endpoints is not None
        self._endpoints = list(endpoints) if endpoints is not None else None
        self.data_dir = data_dir
        self.worker_args = list(worker_args)
        self.heartbeat = heartbeat
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.io_timeout = io_timeout
        self.workers: List[WorkerHandle] = [
            WorkerHandle(i) for i in range(count)
        ]
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Boot every worker, handshake each, start the monitor thread."""
        for handle in self.workers:
            self._boot(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-pool-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self) -> None:
        """Stop supervising and (in spawn mode) terminate the children."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for handle in self.workers:
            handle.state = "stopped"
            proc = handle.proc
            if proc is None:
                continue
            if proc.poll() is None:
                proc.terminate()
        for handle in self.workers:
            proc = handle.proc
            if proc is None:
                continue
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                proc.kill()
                proc.wait(timeout=5.0)
            handle.proc = None

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- what the router asks ------------------------------------------------

    def address_of(self, index: int) -> PyTuple[str, int]:
        """Where worker ``index`` listens — or the retriable error that
        tells the client to back off while the supervisor restarts it."""
        handle = self.workers[index]
        if handle.state != "up" or handle.address is None:
            raise WorkerRestartingError(
                f"worker {index} is {handle.state} (restart "
                f"{handle.restarts}); retry shortly"
            )
        return handle.address

    def generation_of(self, index: int) -> int:
        return self.workers[index].generation

    def fetch_stats(
        self, timeout: Optional[float] = None
    ) -> Dict[int, Optional[Dict[str, object]]]:
        """One synchronous STATS sweep over the fleet; unreachable workers
        map to None.  Snapshots are cached on the handles for the telemetry
        plane (which must not block a scrape on a dead worker)."""
        wait = timeout if timeout is not None else self.io_timeout
        out: Dict[int, Optional[Dict[str, object]]] = {}
        for handle in self.workers:
            out[handle.index] = self._probe(handle, wait)
        return out

    def kill(self, index: int) -> Optional[int]:
        """SIGKILL one worker (chaos tests); returns the pid it had.
        The monitor notices the corpse and restarts it with backoff."""
        handle = self.workers[index]
        proc = handle.proc
        if proc is None or proc.poll() is not None:
            return None
        pid = proc.pid
        proc.kill()
        return pid

    def describe(self) -> Dict[str, object]:
        """Per-worker supervision state for STATS' ``workers`` section."""
        return {
            str(handle.index): handle.describe() for handle in self.workers
        }

    # -- booting -------------------------------------------------------------

    def _boot(self, handle: WorkerHandle) -> None:
        handle.state = "starting"
        if self.static:
            handle.address = self._endpoints[handle.index]
        else:
            self._spawn(handle)
        self._handshake(handle)

    def _spawn(self, handle: WorkerHandle) -> None:
        command = [
            sys.executable, "-m", "repro.server",
            "--host", "127.0.0.1", "--port", "0",
        ]
        if self.data_dir is not None:
            worker_dir = os.path.join(
                self.data_dir, f"worker-{handle.index}"
            )
            os.makedirs(worker_dir, exist_ok=True)
            command += ["--data-dir", worker_dir]
        # "{index}" in an arg becomes the worker's index, so callers can
        # hand each worker a distinct value (e.g. --process-name worker-N)
        command += [
            arg.replace("{index}", str(handle.index))
            for arg in self.worker_args
        ]
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        handle.proc = proc
        handle.address = None
        ready = threading.Event()
        found: List[PyTuple[str, int]] = []

        def _read_output() -> None:
            # keep draining for the child's lifetime: a full pipe buffer
            # would wedge the worker's own prints
            for line in proc.stdout:  # pragma: no branch
                if not ready.is_set():
                    match = _LISTENING.search(line)
                    if match:
                        found.append((match.group(1), int(match.group(2))))
                        ready.set()
            ready.set()  # EOF before the line: boot failed

        reader = threading.Thread(
            target=_read_output,
            name=f"shard-worker-{handle.index}-stdout",
            daemon=True,
        )
        reader.start()
        handle._reader = reader
        if not ready.wait(START_TIMEOUT) or not found:
            proc.kill()
            raise ProtocolError(
                f"worker {handle.index} did not report a listening address "
                f"within {START_TIMEOUT}s"
            )
        handle.address = found[0]

    def _handshake(self, handle: WorkerHandle) -> None:
        """Brand the freshly-booted server with its shard index."""
        deadline = time.monotonic() + START_TIMEOUT
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                response = _ask(
                    handle.address,
                    self.io_timeout,
                    {
                        "op": "WORKER_HELLO",
                        "worker": handle.index,
                        "router": ROUTER_NAME,
                    },
                )
                handle.pid = int(response.get("pid", 0)) or None
                handle.generation += 1
                handle.state = "up"
                handle.last_seen = time.monotonic()
                handle._backoff = 0.0
                return
            except CoralError as exc:
                last = exc
                time.sleep(0.05)
        handle.state = "down"
        raise ProtocolError(
            f"worker {handle.index} at {handle.address} never completed "
            f"WORKER_HELLO: {last}"
        )

    # -- supervision ---------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat):
            for handle in self.workers:
                if self._stop.is_set():
                    return
                try:
                    self._supervise(handle)
                except Exception:  # pragma: no cover - supervisor last line
                    # a supervision hiccup must never kill the monitor; the
                    # next tick retries
                    pass

    def _supervise(self, handle: WorkerHandle) -> None:
        now = time.monotonic()
        if not self.static and handle.proc is not None:
            if handle.proc.poll() is not None and handle.state != "down":
                # the process is a corpse: flip to down and arm the restart
                handle.state = "down"
                handle._backoff = (
                    min(self.backoff_cap, handle._backoff * 2)
                    if handle._backoff
                    else self.backoff
                )
                handle.next_restart_at = now + handle._backoff
                return
        if handle.state == "down":
            if self.static:
                # nothing to respawn: just keep probing until it answers
                if self._probe(handle, self.io_timeout) is not None:
                    handle.generation += 1
                    handle.state = "up"
                return
            if now >= handle.next_restart_at:
                handle.restarts += 1
                try:
                    self._boot(handle)
                except ProtocolError:
                    # boot failed outright: back off harder and try again
                    handle.state = "down"
                    handle._backoff = min(
                        self.backoff_cap, max(handle._backoff * 2, self.backoff)
                    )
                    handle.next_restart_at = time.monotonic() + handle._backoff
            return
        if handle.state == "up":
            self._probe(handle, self.io_timeout)

    def _probe(
        self, handle: WorkerHandle, timeout: float
    ) -> Optional[Dict[str, object]]:
        """One STATS ping; caches the snapshot, flips state on the result."""
        if handle.address is None:
            return None
        try:
            response = _ask(handle.address, timeout, {"op": "STATS"})
        except CoralError:
            if handle.state == "up":
                handle.state = "down"
                handle._backoff = self.backoff
                handle.next_restart_at = time.monotonic() + handle._backoff
            return None
        stats = response.get("stats")
        handle.last_stats = stats if isinstance(stats, dict) else None
        handle.last_seen = time.monotonic()
        return handle.last_stats

    def __repr__(self) -> str:
        states = ",".join(h.state for h in self.workers)
        return f"<WorkerPool count={self.count} [{states}]>"
