"""Live queries — delta-notify latency and throughput vs a poll loop.

A writer extends a chain one edge at a time; every insert derives exactly
one new ``path(1, N)`` answer.  Subscribers receive it two ways:

- **live** (repro.live): a SUBSCRIBE + DELTA long-poll per subscriber —
  the server pushes the delta into the subscription queue at commit time
  and the parked DELTA returns immediately;
- **poll baseline**: the classic workaround, each client re-running the
  full query on an interval and diffing consecutive answer sets.

Measured into ``BENCH_live.json``: notify latency (commit start to the
subscriber holding the delta) p50/p99 and end-to-end deltas/s at 1, 8 and
32 subscribers, plus the poll loop's detection latency at its default
10 ms interval.  The point of the subsystem is the tail: the live p99 must
beat the poll baseline's p99, and CI checks exactly that.

A second, in-process row — ``repair_vs_cold`` — prices the maintenance
engine itself: on a 6x8 layered DAG (the perf ledger's ``live_update``
shape) the time one live view takes to absorb a one-edge insert, and a
one-edge delete, each divided by a cold evaluation of the same goal in the
same process.  A ratio, so it is stable across runners; incremental repair
that is not clearly cheaper than starting over has no reason to exist, and
CI gates both ratios at 0.5.
"""

import statistics
import threading
import time

from repro import Session
from repro.client import RemoteSession
from repro.server import CoralServer

from emit import emit
from ledger.gen import layered_dag
from workloads import report

CHAIN = 12  # initial chain 1..CHAIN
ROUNDS = 40  # inserts per configuration; one new derived answer each
SUBSCRIBER_COUNTS = (1, 8, 32)
POLL_INTERVAL = 0.010  # the baseline's re-query cadence

TC_MODULE = """
module tc.
export path(bf, ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""


def _program():
    edges = " ".join(f"edge({i}, {i + 1})." for i in range(1, CHAIN))
    return edges + "\n" + TC_MODULE


def _percentiles(samples):
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    return p50, p99


def _drive_writer(writer, insert_times, lock):
    """Extend the chain ROUNDS times, stamping each new answer's commit
    start; returns the wall time spent committing."""
    start = time.perf_counter()
    for i in range(ROUNDS):
        node = CHAIN + i
        with lock:
            insert_times[1 + node] = time.perf_counter()
        writer.insert("edge", node, node + 1)
    return time.perf_counter() - start


def run_live(host, port, n_subs):
    writer = RemoteSession(host, port)
    sessions = [RemoteSession(host, port) for _ in range(n_subs)]
    subs = [s.subscribe("?- path(1, Y).") for s in sessions]
    latencies = []
    received = [0]
    lock = threading.Lock()
    insert_times = {}
    stop = threading.Event()

    def drain(sub):
        while not stop.is_set():
            kind, payload = sub.poll(timeout=0.25)
            now = time.perf_counter()
            if kind == "deltas":
                with lock:
                    received[0] += len(payload)
                    for _sign, values in payload:
                        stamped = insert_times.get(values[-1])
                        if stamped is not None:
                            latencies.append(now - stamped)
            elif kind == "closed":
                return

    threads = [
        threading.Thread(target=drain, args=(sub,), daemon=True)
        for sub in subs
    ]
    for thread in threads:
        thread.start()
    wall = _drive_writer(writer, insert_times, lock)
    expected = ROUNDS * n_subs
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        with lock:
            if received[0] >= expected:
                break
        time.sleep(0.01)
    total = time.perf_counter() - (
        min(insert_times.values()) if insert_times else time.perf_counter()
    )
    stop.set()
    for thread in threads:
        thread.join(timeout=5.0)
    for s in sessions:
        s.close()
    writer.close()
    p50, p99 = _percentiles(latencies)
    return {
        "subscribers": n_subs,
        "deltas": received[0],
        "notify_p50_ms": p50 * 1e3,
        "notify_p99_ms": p99 * 1e3,
        "deltas_per_second": received[0] / total if total > 0 else 0.0,
        "writer_wall_seconds": wall,
    }


def run_poll_baseline(host, port, n_subs):
    """The pre-live workaround: re-run the query on an interval, diff."""
    writer = RemoteSession(host, port)
    sessions = [RemoteSession(host, port) for _ in range(n_subs)]
    latencies = []
    detected = [0]
    lock = threading.Lock()
    insert_times = {}
    stop = threading.Event()

    def poll_loop(session):
        seen = {t for t in session.query("path(1, Y)").tuples()}
        while not stop.is_set():
            time.sleep(POLL_INTERVAL)
            fresh = {t for t in session.query("path(1, Y)").tuples()}
            now = time.perf_counter()
            new = fresh - seen
            if new:
                with lock:
                    detected[0] += len(new)
                    for values in new:
                        stamped = insert_times.get(values[-1])
                        if stamped is not None:
                            latencies.append(now - stamped)
            seen = fresh

    threads = [
        threading.Thread(target=poll_loop, args=(s,), daemon=True)
        for s in sessions
    ]
    for thread in threads:
        thread.start()
    wall = _drive_writer(writer, insert_times, lock)
    expected = ROUNDS * n_subs
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        with lock:
            if detected[0] >= expected:
                break
        time.sleep(0.01)
    stop.set()
    for thread in threads:
        thread.join(timeout=5.0)
    for s in sessions:
        s.close()
    writer.close()
    p50, p99 = _percentiles(latencies)
    return {
        "subscribers": n_subs,
        "detected": detected[0],
        "notify_p50_ms": p50 * 1e3,
        "notify_p99_ms": p99 * 1e3,
        "writer_wall_seconds": wall,
    }


DAG_LAYERS, DAG_WIDTH = 6, 8
REPAIR_ROUNDS = 30


def run_repair_vs_cold():
    """One view's one-edge repairs against cold evaluation of its goal."""
    dag = layered_dag(DAG_LAYERS, DAG_WIDTH, weighted=False)
    program = "".join(f"edge({a}, {b}).\n" for a, b in dag)
    program += TC_MODULE
    goal = "path(0, Y)"
    toggled = (3 * DAG_WIDTH + 2, 4 * DAG_WIDTH + 2)  # a middle-gap edge

    cold = Session()  # no memo, no view: every query starts over
    cold.consult_string(program)
    answers = len(cold.query(goal).all())  # compiles the query form
    cold_samples = []
    for _ in range(REPAIR_ROUNDS):
        start = time.perf_counter()
        cold.query(goal).all()
        cold_samples.append(time.perf_counter() - start)
    cold_ms = statistics.median(cold_samples) * 1e3

    live = Session()
    live.consult_string(program)
    live.subscribe(f"?- {goal}.", lambda deltas: None)
    live.delete("edge", *toggled)  # the first repair builds the delta joins
    live.insert("edge", *toggled)
    delete_samples, insert_samples = [], []
    for _ in range(REPAIR_ROUNDS):
        start = time.perf_counter()
        live.delete("edge", *toggled)
        middle = time.perf_counter()
        live.insert("edge", *toggled)
        insert_samples.append(time.perf_counter() - middle)
        delete_samples.append(middle - start)
    stats = live.live.snapshot()
    insert_ms = statistics.median(insert_samples) * 1e3
    delete_ms = statistics.median(delete_samples) * 1e3
    return {
        "answers": answers,
        "cold_ms": cold_ms,
        "insert_repair_ms": insert_ms,
        "delete_repair_ms": delete_ms,
        "insert_ratio": insert_ms / cold_ms,
        "delete_ratio": delete_ms / cold_ms,
        "rebuilds": stats["rebuilds"],
    }


def main():
    counters = {}
    rows = []
    overall_start = time.perf_counter()
    for n_subs in SUBSCRIBER_COUNTS:
        with CoralServer(host="127.0.0.1", port=0) as server:
            host, port = server.address
            with RemoteSession(host, port) as boot:
                boot.consult_string(_program())
            outcome = run_live(host, port, n_subs)
        counters[f"live_{n_subs}_subscribers"] = outcome
        rows.append(
            (
                f"live x{n_subs}",
                f"{outcome['notify_p50_ms']:.2f}ms",
                f"{outcome['notify_p99_ms']:.2f}ms",
                f"{outcome['deltas_per_second']:.0f}/s",
            )
        )
    with CoralServer(host="127.0.0.1", port=0) as server:
        host, port = server.address
        with RemoteSession(host, port) as boot:
            boot.consult_string(_program())
        baseline = run_poll_baseline(host, port, 1)
    counters["poll_baseline_1_subscriber"] = baseline
    rows.append(
        (
            "poll x1",
            f"{baseline['notify_p50_ms']:.2f}ms",
            f"{baseline['notify_p99_ms']:.2f}ms",
            "-",
        )
    )
    repair = counters["repair_vs_cold"] = run_repair_vs_cold()
    wall = time.perf_counter() - overall_start

    live_p99 = counters["live_1_subscribers"]["notify_p99_ms"]
    counters["live_p99_beats_poll_baseline"] = bool(
        live_p99 < baseline["notify_p99_ms"]
    )
    report(
        "live subscriptions vs poll loop",
        ("configuration", "notify p50", "notify p99", "throughput"),
        rows,
    )
    print(
        f"live p99 {live_p99:.2f}ms vs poll p99 "
        f"{baseline['notify_p99_ms']:.2f}ms -> "
        f"{'BEATS' if counters['live_p99_beats_poll_baseline'] else 'LOSES TO'}"
        f" the poll baseline"
    )
    report(
        "one view's one-edge repair vs cold evaluation of its goal",
        ("operation", "time", "vs cold"),
        [
            ("cold evaluation", f"{repair['cold_ms']:.2f}ms", "1.00"),
            ("insert repair", f"{repair['insert_repair_ms']:.2f}ms",
             f"{repair['insert_ratio']:.2f}"),
            ("delete repair", f"{repair['delete_repair_ms']:.2f}ms",
             f"{repair['delete_ratio']:.2f}"),
        ],
    )
    path = emit(
        "live",
        {
            "chain": CHAIN,
            "rounds": ROUNDS,
            "subscriber_counts": list(SUBSCRIBER_COUNTS),
            "poll_interval_seconds": POLL_INTERVAL,
        },
        wall,
        counters,
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
