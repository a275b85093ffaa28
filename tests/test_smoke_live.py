"""End-to-end smoke of live views over the wire (the CI ``live-smoke`` job
runs exactly this: ``pytest -m smoke``): boot ``python -m repro.server``,
attach 4 live subscribers (separate processes, one dedicated connection
each — docs/LIVE.md), run two concurrent writers, SIGKILL one subscriber
mid-stream, and check that the server stays healthy, reclaims the dead
subscription, and the survivors' folded delta streams converge on the cold
truth."""

import json
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.client import RemoteSession

from .test_smoke_obs import _Servers

pytestmark = pytest.mark.smoke

#: one live subscriber process: fold the delta stream, publish the view
SUBSCRIBER = '''
import json, os, sys

from repro.client import RemoteSession

host, port, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]


def publish(sub):
    with open(out_path + ".tmp", "w") as handle:
        json.dump(sorted(sub.view()), handle)
    os.replace(out_path + ".tmp", out_path)


with RemoteSession(host, port) as db:
    sub = db.subscribe("?- path(1, Y).")
    publish(sub)
    print("subscribed", flush=True)
    while True:
        kind, _payload = sub.poll(timeout=0.5)
        if kind == "closed":
            break
        publish(sub)
'''


def test_live_smoke(tmp_path):
    (tmp_path / "live_subscriber.py").write_text(SUBSCRIBER)
    subscribers = []
    with _Servers(tmp_path) as servers:
        proc, host, port = servers.boot()
        try:
            db = RemoteSession(host, port)
            db.consult_string(
                "edge(1, 2). edge(2, 3)."
                " module tc. export path(bf)."
                " path(X, Y) :- edge(X, Y)."
                " path(X, Y) :- edge(X, Z), path(Z, Y)."
                " end_module."
            )
            for i in range(4):
                subscribers.append(subprocess.Popen(
                    [sys.executable, "live_subscriber.py",
                     host, str(port), f"view-{i}.json"],
                    stdout=subprocess.PIPE,
                    text=True,
                    cwd=tmp_path,
                    env=servers.env,
                ))
            for i, sub in enumerate(subscribers):
                line = sub.stdout.readline().strip()
                assert line == "subscribed", f"subscriber {i}: {line!r}"

            # two concurrent writers fanning answers out of the source node;
            # every fourth insert is retracted again so the stream carries
            # minus-deltas too
            def writer(base, count):
                with RemoteSession(host, port) as w:
                    for i in range(count):
                        w.insert("edge", 1, base + i)
                        time.sleep(0.01)
                    for i in range(0, count, 4):
                        w.delete("edge", 1, base + i)
                        time.sleep(0.01)

            threads = [
                threading.Thread(target=writer, args=(1000, 24)),
                threading.Thread(target=writer, args=(2000, 24)),
            ]
            for t in threads:
                t.start()
            time.sleep(0.1)  # mid-stream
            subscribers[0].send_signal(signal.SIGKILL)
            for t in threads:
                t.join()

            truth = sorted(db.query("path(1, Y)").tuples())
            assert truth, "cold truth is empty"

            # the survivors' folded views converge on the cold truth
            pending = {1, 2, 3}
            deadline = time.time() + 30
            while pending and time.time() < deadline:
                for i in sorted(pending):
                    try:
                        view = json.loads((tmp_path / f"view-{i}.json").read_text())
                    except (OSError, ValueError):
                        continue
                    if sorted(tuple(row) for row in view) == truth:
                        pending.discard(i)
                time.sleep(0.05)
            assert not pending, f"subscribers {sorted(pending)} never converged"

            # the dead subscriber is reclaimed with its connection
            deadline = time.time() + 30
            while time.time() < deadline:
                live = db.stats()["live"]
                if live["subscriptions"] == 3:
                    break
                time.sleep(0.2)
            assert live["subscriptions"] == 3, live
            assert live["deltas_sent"] > 0, live

            # ...and the server still answers ordinary queries
            assert sorted(db.query("edge(1, X)").tuples()), "server unhealthy"
            db.close()

            for sub in subscribers[1:]:
                sub.terminate()
                sub.wait(timeout=10)
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
            assert "clean shutdown" in out, out
            assert proc.returncode == 0, proc.returncode
        finally:
            for sub in subscribers:
                if sub.poll() is None:
                    sub.kill()
                sub.communicate()
