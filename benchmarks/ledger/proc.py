"""Process hygiene: the server child, the reaper, the work dir, the guard.

A failed pass must leave no ``repro.server`` behind and must fail, not hang:

- ``ServerProcess`` starts the server on port 0 and parses its banner, is a
  context manager (kill on exception), and always waits for the child;
- ``Reaper`` kills whatever is still registered at interpreter exit;
- ``Watchdog`` aborts the whole run (exit code 3, children killed) when a
  workload takes more than its wall-clock allowance.
"""

from __future__ import annotations

import atexit
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

BANNER = b"coral-server listening on "


class Reaper:
    """Every child alive at exit is killed and waited for."""

    def __init__(self) -> None:
        self._children: List[subprocess.Popen] = []
        self._lock = threading.Lock()
        atexit.register(self.kill_all)

    def add(self, child: subprocess.Popen) -> None:
        with self._lock:
            self._children.append(child)

    def discard(self, child: subprocess.Popen) -> None:
        with self._lock:
            if child in self._children:
                self._children.remove(child)

    def kill_all(self) -> None:
        with self._lock:
            children, self._children = self._children, []
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()


class Watchdog:
    """Abort the run if it outlives ``limit`` seconds."""

    def __init__(self, limit: float, reaper: Reaper, what: str) -> None:
        self._timer = threading.Timer(limit, self._abort)
        self._timer.daemon = True
        self._limit, self._reaper, self._what = limit, reaper, what

    def _abort(self) -> None:
        sys.stderr.write(
            f"ledger: {self._what} exceeded its {self._limit:.0f} s wall-clock "
            f"guard; aborting as a failure\n"
        )
        sys.stderr.flush()
        self._reaper.kill_all()
        os._exit(3)

    def __enter__(self) -> "Watchdog":
        self._timer.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timer.cancel()


def pin_to_one_cpu() -> Optional[int]:
    """Run this process and every child on one CPU (the highest allowed);
    returns it, or None where affinity cannot be set.

    Every loop of the ledger is closed and the server serializes on one
    lock, so a second CPU adds no throughput — only cross-CPU wake-ups,
    which on a 2-vCPU VM were the largest source of run-to-run noise
    (wire_lookup's query_p50_ms: 29 % spread unpinned, 6 % pinned, measured
    interleaved; pinned was also the faster of the two)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class StealClock:
    """Seconds the hypervisor has withheld one CPU from this guest.

    On a shared VM the host takes the CPU away for 10-60 % of some minutes
    and 0 % of others; a rate over wall time then measures the neighbours.
    /proc/stat counts that *steal* time per CPU, and with everything pinned
    to one CPU ``wall - steal`` is the time the ledger's processes had it
    (it tracked process CPU time to a few percent on a busy loop while wall
    time varied 2x).  The ledger uses it as the base of ``queries_per_s``
    and ``setup_s`` (their spread under heavy steal: 37-40 % over wall,
    11-16 % net); per-op latencies stay as measured.  Reads 0 where there
    is no such counter."""

    def __init__(self, cpu: Optional[int]) -> None:
        self._prefix = f"cpu{cpu} " if cpu is not None else None
        self._tick = 1.0 / os.sysconf("SC_CLK_TCK")

    def seconds(self) -> float:
        if self._prefix is None:
            return 0.0
        try:
            with open("/proc/stat", encoding="ascii") as stat:
                for line in stat:
                    if line.startswith(self._prefix):
                        fields = line.split()
                        return int(fields[8]) * self._tick if len(fields) > 8 else 0.0
        except OSError:
            pass
        return 0.0

    def net(self, wall: float, stolen_before: float) -> float:
        """``wall`` seconds that began when ``seconds()`` read
        ``stolen_before``, less what was stolen of them."""
        stolen = self.seconds() - stolen_before
        return max(wall - stolen, 0.1 * wall)


def work_dir() -> str:
    """A fresh scratch directory inside the checkout (never /tmp: the
    benchmark reads and writes only below the repository root)."""
    base = HERE / "_work"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


class ServerProcess:
    """``python -m repro.server --port 0`` (default flags), or — traced —
    the harness's launcher, which installs the span wrappers first."""

    START_TIMEOUT = 30.0
    STOP_TIMEOUT = 10.0

    def __init__(self, reaper: Reaper, traced: bool = False) -> None:
        self.reaper = reaper
        self.traced = traced
        self.child: Optional[subprocess.Popen] = None
        self.port = 0
        self.dump_dir: Optional[str] = None
        self._snapshots = 0

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if self.traced:
            self.dump_dir = work_dir()
            command = [
                sys.executable, "-m", "benchmarks.ledger.server_launcher",
                "--dump-dir", self.dump_dir, "--", "--port", "0",
            ]
        else:
            command = [sys.executable, "-m", "repro.server", "--port", "0"]
        self.child = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
        )
        self.reaper.add(self.child)
        try:
            self.port = self._read_banner()
        except BaseException:
            self.stop()
            raise
        return self

    def _read_banner(self) -> int:
        """The port from ``coral-server listening on HOST:PORT (role)``."""
        deadline = time.monotonic() + self.START_TIMEOUT
        fd = self.child.stdout.fileno()
        seen = b""
        while b"\n" not in seen:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(remaining, 0.0))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"server printed no banner within {self.START_TIMEOUT} s "
                    f"(exit code {self.child.poll()}): {seen!r}"
                )
            seen += chunk
        line = seen.split(b"\n", 1)[0]
        if not line.startswith(BANNER):
            raise RuntimeError(f"unexpected server banner {line!r}")
        address = line[len(BANNER):].split()[0]
        return int(address.rsplit(b":", 1)[1])

    def snapshot(self) -> Dict[str, list]:
        """Traced servers only: the launcher's recorder totals right now."""
        self._snapshots += 1
        path = os.path.join(self.dump_dir, f"snapshot-{self._snapshots}.json")
        self.child.send_signal(signal.SIGUSR1)
        return _await_json(path, self.child)

    def stop(self) -> Optional[Dict[str, object]]:
        """SIGTERM (graceful drain), then SIGKILL; always waits.  Returns
        the traced launcher's final dump (totals + retained spans)."""
        child, self.child = self.child, None
        if child is None:
            return None
        try:
            if child.poll() is None:
                child.terminate()
                try:
                    child.wait(self.STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    child.kill()
            child.wait()
            child.stdout.close()
        finally:
            self.reaper.discard(child)
        final = None
        if self.dump_dir is not None:
            path = os.path.join(self.dump_dir, "final.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    final = json.load(handle)
            shutil.rmtree(self.dump_dir, ignore_errors=True)
            self.dump_dir = None
        return final

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _await_json(path: str, child: subprocess.Popen, timeout: float = 10.0):
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if child.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError(f"traced server never wrote {path}")
        time.sleep(0.005)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
