"""The ledger's one command: run workloads, check answers, print metrics.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
does one run and ends its output with one JSON line (the BENCHMARK.json
contract).  Without ``--workload`` it runs every workload, untraced and
traced, each in a fresh process, and prints the whole ledger;
``--check-repeat`` does that twice and fails on any disagreement.

A run sets the workload up several times (``setup_s`` is the median), does
one warm-up pass, then repeats whole passes of the seeded op list until
``--seconds`` have gone by.  Every loop is closed — a client waits for its
reply — and every answer is checked against the oracle as it arrives,
outside the latency timers.  End-to-end metrics always come from untraced
runs, in which no wrapper is installed; ``--trace 1`` spends a quarter of
its window untraced (the base of ``obs.trace_overhead_ratio``) and the
rest with the span wrappers on.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from . import layers, trace
from .gen import SPECS, Inputs, generate
from .layers import DELETE, INSERT, QUERY, SETUP, STEP_ROOTS, percentile
from .oracle import EdgeState, Failures
from .proc import HERE, ROOT, Reaper, StealClock, Watchdog, pin_to_one_cpu
from .workloads import AUDIT_EVERY, WORKLOADS, Client, Workload

SETUP_REPEATS = 5
DEFAULT_SECONDS = 10
#: a run may take 3x what it should: every set-up, the warm-up pass, the
#: window, and one pass of overshoot; past that the watchdog fails it
EXPECTED_OVERHEAD_SECONDS = 20.0
UNTRACED_SHARE = 0.25  # of a --trace 1 window


@dataclass
class PassLog:
    """What one pass measured: latencies by op kind, and its duration."""

    seconds: Dict[str, List[float]] = field(
        default_factory=lambda: {QUERY: [], INSERT: [], DELETE: []}
    )
    notify: List[float] = field(default_factory=list)
    answers: int = 0
    #: seconds the pass took, less those the host stole from it: the base
    #: of rates (latencies stay as measured — steal comes in bursts that hit
    #: a few ops, not every op a little)
    net: float = 0.0


@dataclass
class Lane:
    """One client's side of a run: its oracle state and what it measured."""

    index: int
    client: Client
    state: EdgeState
    steal: StealClock
    failures: Failures = field(default_factory=Failures)
    step: int = 0
    #: one entry per completed pass
    passes: List[PassLog] = field(default_factory=list)


def run_pass(lane: Lane, recorder: Optional[trace.Recorder]) -> None:
    """One pass of the lane's op list: per step, toggle one pool edge and
    read one key.  Latencies cover the public call only (all answers
    drained); oracle checks run between ops, outside the timers."""
    client, state, failures = lane.client, lane.state, lane.failures
    pool = client.ops.pool
    log = PassLog()
    stolen_before = lane.steal.seconds()
    pass_started = perf_counter()
    for pool_index, key in client.ops.steps:
        lane.step += 1
        op_id = (lane.index << 40) | (lane.step << 1)
        edge = pool[pool_index]
        kind = INSERT if state.toggle(edge) == "insert" else DELETE
        update = client.insert if kind == INSERT else client.delete
        client.last_notify = None
        failures.attempt()
        frame = recorder.begin(kind, op_id) if recorder is not None else None
        started = perf_counter()
        try:
            changed = update(edge)
            problem = None if changed else "refused (no change)"
        except Exception as exc:  # the ledger must survive and report it
            problem = f"raised {type(exc).__name__}: {exc}"
        ended = perf_counter()
        if frame is not None:
            recorder.end(frame)
        if problem is None:
            log.seconds[kind].append(ended - started)
            if client.last_notify is not None:
                log.notify.append(client.last_notify - started)
        else:
            failures.fail(f"{kind} edge{edge}: {problem}")
            state.toggle(edge)  # the database did not follow; undo ours

        failures.attempt()
        frame = recorder.begin(QUERY, op_id | 1) if recorder is not None else None
        started = perf_counter()
        try:
            answers = client.query(key)
            problem = None
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        ended = perf_counter()
        if frame is not None:
            recorder.end(frame)
        if problem is None:
            problem = client.check(answers, state, key)
        if problem is None:
            log.seconds[QUERY].append(ended - started)
            log.answers += len(answers)
        else:
            failures.fail(f"read of key {key} at step {lane.step}: {problem}")
        if lane.step % AUDIT_EVERY == 0:
            audit(lane)
    log.net = lane.steal.net(perf_counter() - pass_started, stolen_before)
    audit(lane)
    lane.passes.append(log)


def audit(lane: Lane) -> None:
    for verdict in lane.client.audit(lane.state):
        lane.failures.attempt()
        if verdict is not None:
            lane.failures.fail(f"live view at step {lane.step}: {verdict}")


def run_window(lanes: List[Lane], seconds: float,
               recorder: Optional[trace.Recorder] = None,
               retain_first_pass: bool = False) -> None:
    """Whole passes on every lane until ``seconds`` have gone by (at least
    one); what they measured is left in each lane's ``passes``."""
    for lane in lanes:
        lane.passes = []
    deadline = perf_counter() + seconds

    def drive(lane: Lane) -> None:
        first = True
        while first or perf_counter() < deadline:
            if recorder is not None and lane.index == 0:
                recorder.retain = retain_first_pass and first
            run_pass(lane, recorder)
            first = False

    if len(lanes) == 1:
        drive(lanes[0])
    else:
        crashes: List[BaseException] = []

        def guarded(lane: Lane) -> None:
            try:
                drive(lane)
            except BaseException as exc:  # re-raised on the main thread
                crashes.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(lane,)) for lane in lanes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if crashes:
            raise crashes[0]
    if recorder is not None:
        recorder.retain = False


def make_lanes(workload: Workload, inputs: Inputs, steal: StealClock) -> List[Lane]:
    return [
        Lane(index, client, EdgeState(inputs.edges), steal)
        for index, client in enumerate(workload.clients)
    ]


def net_seconds_per_step(lanes: List[Lane]) -> float:
    passes = [log for lane in lanes for log in lane.passes]
    return sum(log.net for log in passes) / sum(
        len(log.seconds[QUERY]) for log in passes
    )


def count_ops(lanes: List[Lane], kind: str) -> int:
    return sum(len(log.seconds[kind]) for lane in lanes for log in lane.passes)


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    failures: Failures
    #: name -> (value, unit, samples behind it)
    metrics: Dict[str, tuple] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failures.failed == 0 and self.failures.attempted > 0

    def contract_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.failures.attempted,
            "failed": self.failures.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _samples) in self.metrics.items()
            },
        })

    def report(self) -> None:
        """Every metric by name, with its unit and its sample count."""
        mode = "traced" if self.traced else "untraced"
        print(f"# {self.workload} seed={self.seed} ({mode})")
        for name, (value, unit, samples) in self.metrics.items():
            print(f"{name:36s} {value:14.6g} {unit}  n={samples}")
        print(f"{'failed_ops_ratio':36s} {self.failures.ratio:14.6g} ratio"
              f"  n={self.failures.attempted}")
        for reason in self.failures.reasons:
            print(f"FAILED: {reason}")


def peak_rss_mb() -> float:
    """This process's high-water mark plus that of its largest reaped child
    (the server): ru_maxrss is KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_untraced(name: str, seed: int, seconds: float, reaper: Reaper,
                 steal: StealClock) -> Result:
    inputs = generate(name, seed)
    failures = Failures()
    if trace.installed_count(layers.TARGETS):
        raise RuntimeError("untraced run with span wrappers installed")
    setups: List[float] = []
    workload: Optional[Workload] = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        gc.collect()  # every set-up starts from the same collector state
        stolen_before = steal.seconds()
        started = perf_counter()
        workload = WORKLOADS[name](inputs, failures, reaper)
        setups.append(steal.net(perf_counter() - started, stolen_before))
    try:
        lanes = make_lanes(workload, inputs, steal)
        run_window(lanes, 0.0)  # warm-up: one pass, checked but not timed
        run_window(lanes, seconds)
    finally:
        workload.close()
    for lane in lanes:
        failures.merge(lane.failures)
    result = Result(name, seed, False, failures)
    passes = [log for lane in lanes for log in lane.passes]
    if not all(log.seconds[kind] for log in passes for kind in STEP_ROOTS):
        return result  # every op of some kind failed: nothing to report

    # every timing is the median over passes of one pass's statistic
    reads = [log.seconds[QUERY] for log in passes]
    values = {
        "query_p50_ms": statistics.median(map(statistics.median, reads)) * 1e3,
        "query_p95_ms": statistics.median(percentile(s, 0.95) for s in reads) * 1e3,
        # closed loop: the lanes run side by side, each at its own rate
        "queries_per_s": len(lanes) * statistics.median(
            len(log.seconds[QUERY]) / log.net for log in passes
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    for metric in layers.END_TO_END:
        result.metrics[metric.name] = (
            values[metric.name], metric.unit,
            samples.get(metric.name, sum(map(len, reads))),
        )
    return result


def run_traced(name: str, seed: int, seconds: float, reaper: Reaper,
               steal: StealClock) -> Result:
    inputs = generate(name, seed)
    failures = Failures()

    # the untraced base of the overhead ratio: same passes, no wrappers
    workload = WORKLOADS[name](inputs, failures, reaper)
    try:
        lanes = make_lanes(workload, inputs, steal)
        run_window(lanes, 0.0)
        run_window(lanes, seconds * UNTRACED_SHARE)
        base_step_seconds = net_seconds_per_step(lanes)
        untraced_seconds = {
            kind: [s for lane in lanes for log in lane.passes
                   for s in log.seconds[kind]]
            for kind in (INSERT, DELETE)
        }
    finally:
        workload.close()
    for lane in lanes:
        failures.merge(lane.failures)

    recorder = trace.Recorder()
    installed = trace.install(recorder, layers.TARGETS)
    server_final = None
    try:
        frame = recorder.begin(SETUP, op_id=0)
        try:
            workload = WORKLOADS[name](inputs, failures, reaper, traced_server=True)
        finally:
            recorder.end(frame)
        try:
            recorder.retain = False
            lanes = make_lanes(workload, inputs, steal)
            run_window(lanes, 0.0, recorder)
            # counters are read outside the snapshots: on the wire reading
            # them is itself a request
            counters_before = workload.counters()
            server = getattr(workload, "server", None)
            server_setup = server.snapshot() if server is not None else None
            before = recorder.snapshot()
            run_window(
                lanes, seconds * (1.0 - UNTRACED_SHARE), recorder,
                retain_first_pass=True,
            )
            after = recorder.snapshot()
            server_after = server.snapshot() if server is not None else None
            counters_after = workload.counters()
        finally:
            server_final = workload.close()
    finally:
        trace.uninstall(installed)
    for lane in lanes:
        failures.merge(lane.failures)

    passes = [log for lane in lanes for log in lane.passes]
    harness = trace.Totals(after, since=before)
    harness.keep_roots(STEP_ROOTS)
    setup = trace.Totals(after)
    setup.keep_roots([SETUP])
    if server_setup is not None:
        setup.add(trace.Totals(server_setup))
    empty = {"totals": [], "counts": []}
    count = {kind: count_ops(lanes, kind) for kind in STEP_ROOTS}
    steps = count[QUERY]
    context = layers.TraceContext(
        steps=steps,
        inserts=count[INSERT],
        deletes=count[DELETE],
        answers=sum(log.answers for log in passes),
        harness=harness,
        server=trace.Totals(server_after or empty, since=server_setup),
        setup=setup,
        counters={
            key: counters_after[key] - counters_before.get(key, 0)
            for key in counters_after
        },
        op_seconds={
            kind: harness.inclusive(kind) / count[kind] if count[kind] else 0.0
            for kind in STEP_ROOTS
        },
        untraced_seconds=untraced_seconds,
        notify_seconds=statistics.fmean(
            [s for log in passes for s in log.notify] or [0.0]
        ),
        overhead_ratio=net_seconds_per_step(lanes) / base_step_seconds,
    )
    result = Result(name, seed, True, failures)
    for metric in layers.PER_LAYER:
        result.metrics[metric.name] = (metric.value(context), metric.unit, steps)
    write_traces(name, seed, recorder, server_final)
    return result


def write_traces(name: str, seed: int, recorder: trace.Recorder,
                 server_final: Optional[dict]) -> None:
    """The retained spans (set-up + first traced pass), as JSONL and as a
    Chrome trace, under ``_out/`` beside this file."""
    spans = {"harness": recorder.spans()}
    if server_final is not None:
        spans["server"] = [tuple(span) for span in server_final["spans"]]
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    stem = str(out / f"{name}-seed{seed}")
    trace.write_jsonl(stem + ".spans.jsonl", spans)
    trace.write_chrome_trace(stem + ".chrome.json", spans)


def run_one(name: str, seed: int, seconds: float, traced: bool) -> Result:
    steal = StealClock(pin_to_one_cpu())
    reaper = Reaper()
    limit = 3.0 * (seconds + EXPECTED_OVERHEAD_SECONDS)
    with Watchdog(limit, reaper, f"{name} seed {seed}"):
        runner = run_traced if traced else run_untraced
        return runner(name, seed, seconds, reaper, steal)


# -- the whole ledger: every workload, each run in a fresh process --------------


def run_child(name: str, seed: int, seconds: float, traced: bool,
              reaper: Reaper) -> dict:
    """One contract-mode run in a process of its own (peak RSS is a
    per-process high-water mark, so runs must not share one)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=str(ROOT))
    reaper.add(child)
    try:
        output, _ = child.communicate()
    finally:
        reaper.discard(child)
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = output.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{name} (trace={int(traced)}) exited {child.returncode} "
            f"without a result line"
        ) from None
    line["exit_code"] = child.returncode
    return line


def hardware() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


def run_ledger(names: List[str], seed: int, seconds: float) -> dict:
    reaper = Reaper()
    ledger = {"hardware": hardware(), "seed": seed, "seconds": seconds,
              "ok": True, "workloads": {}}
    for name in names:
        entry = ledger["workloads"][name] = {}
        for traced in (False, True):
            line = run_child(name, seed, seconds, traced, reaper)
            entry["per_layer" if traced else "end_to_end"] = line["metrics"]
            entry["traced_ops" if traced else "ops"] = line["attempted"]
            if not line["correct"] or line["exit_code"] != 0:
                ledger["ok"] = False
    return ledger


def check_repeat(names: List[str], seed: int, seconds: float) -> bool:
    """Two full sets of the same code on the same seed must agree: every
    end-to-end metric within a tenth (or its own bound, if tighter), every
    per-layer count exactly."""
    first = run_ledger(names, seed, seconds)
    second = run_ledger(names, seed, seconds)
    agreed = first["ok"] and second["ok"]
    bounds = {metric.name: metric.bound for metric in layers.END_TO_END}
    print("# check-repeat: run-to-run difference as a share of the smaller")
    for name in names:
        a, b = first["workloads"][name], second["workloads"][name]
        for metric, bound in bounds.items():
            x, y = a["end_to_end"][metric]["value"], b["end_to_end"][metric]["value"]
            spread = abs(x - y) / min(x, y)
            verdict = "ok" if spread <= min(0.10, bound) else "DISAGREES"
            agreed = agreed and verdict == "ok"
            print(f"{name:12s} {metric:16s} {x:12.5g} {y:12.5g} "
                  f"{spread:8.2%} {verdict}")
        for metric in layers.PER_LAYER:
            if metric.unit != "count":
                continue
            x = a["per_layer"][metric.name]["value"]
            y = b["per_layer"][metric.name]["value"]
            if x != y:
                agreed = False
                print(f"{name:12s} {metric.name:32s} {x!r} != {y!r} DISAGREES")
    print("# check-repeat:", "agreed" if agreed else "DISAGREED")
    return agreed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ledger", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice and fail on disagreement")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the whole ledger as JSON")
    args = parser.parse_args(argv)
    traced = bool(args.trace) or args.traced
    names = [args.workload] if args.workload else list(SPECS)

    if args.check_repeat:
        return 0 if check_repeat(names, args.seed, args.seconds) else 1
    if args.workload and (args.trace is not None or args.traced):
        result = run_one(args.workload, args.seed, args.seconds, traced)
        result.report()
        if not result.metrics:
            return 1  # nothing measured: no result line either
        print(result.contract_line())
        return 0 if result.correct else 1
    ledger = run_ledger(names, args.seed, args.seconds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(ledger, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0 if ledger["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
