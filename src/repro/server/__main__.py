"""``python -m repro.server`` — host one CORAL database over TCP.

Examples::

    python -m repro.server --port 4242 --consult examples/graph.crl
    python -m repro.server --port 0 --data-dir /var/coral   # ephemeral port
    python -m repro.server --port 0 --telemetry-port 0 \\
        --slow-query-log slow.jsonl --flight-dump crash.jsonl

The server prints ``coral-server listening on HOST:PORT`` once it is
accepting (with the real port when 0 was requested — the line scripts and
the CI smoke job parse), and ``coral-server telemetry on HOST:PORT`` when
``--telemetry-port`` is given, then serves until SIGINT/SIGTERM.  Shutdown
is graceful: the server stops accepting connections and refusing new work,
drains open cursors for up to ``--drain-timeout`` seconds, flushes the
changelog and the storage pool, and exits 0.

Replication (docs/REPLICATION.md)::

    # a primary with a durable changelog
    python -m repro.server --port 4242 --changelog /var/coral/changelog

    # two read replicas following it
    python -m repro.server --port 4243 --replicate-from 127.0.0.1:4242
    python -m repro.server --port 4244 --replicate-from 127.0.0.1:4242

    # a primary that acknowledges writes only after 1 replica has them
    python -m repro.server --port 4242 --changelog log --sync-replicas 1

Sharding (docs/SHARDING.md)::

    # a router over 4 supervised worker processes, each with a private
    # storage directory under /var/coral/worker-<i>
    python -m repro.server --port 4242 --workers 4 --data-dir /var/coral \\
        --shard-map shards.map
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from ..api import Session
from ..eval.limits import ResourceLimits
from .core import CoralServer, DEFAULT_BATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coral-server",
        description="Serve one CORAL database to concurrent remote clients.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=4242,
        help="TCP port; 0 picks an ephemeral one (printed on stdout)",
    )
    parser.add_argument(
        "--data-dir", default=None,
        help="open this page-storage directory on the shared session",
    )
    parser.add_argument(
        "--consult", action="append", default=[], metavar="FILE",
        help="program/data file(s) to consult before serving",
    )
    parser.add_argument(
        "--persistent", action="append", default=[], metavar="NAME/ARITY",
        help="register a disk-backed relation from --data-dir (repeatable; "
             "persistent relations are not auto-registered on reopen)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH,
        help="default answers per FETCH (client may override per request)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-request evaluation timeout in seconds",
    )
    parser.add_argument(
        "--max-tuples", type=int, default=None,
        help="per-request cap on derived tuples",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record per-connection trace events (repro.obs)",
    )
    parser.add_argument(
        "--trace-sample", type=float, default=0.0, metavar="RATE",
        help="distributed-tracing head sampling rate in [0, 1]: mint a "
             "sampled trace context for this fraction of untraced requests "
             "(0 disables; queries tripping the slow-query log are always "
             "sampled — docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--span-dir", default=None, metavar="DIR",
        help="drain this process's distributed-tracing spans to "
             "DIR/<process-name>.jsonl (with --workers the whole fleet "
             "shares the directory, one file per process)",
    )
    parser.add_argument(
        "--process-name", default=None, metavar="NAME",
        help="the process name spans are recorded under (default: "
             "<role>-<pid>)",
    )
    parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve /metrics, /healthz and /debug/flight over HTTP on this "
             "port (0 picks an ephemeral one, printed on stdout)",
    )
    parser.add_argument(
        "--telemetry-host", default="127.0.0.1",
        help="bind address for the telemetry endpoint",
    )
    parser.add_argument(
        "--flight-recorder", action="store_true",
        help="keep a bounded in-memory ring of recent evaluation events, "
             "dumped to --flight-dump on storage faults",
    )
    parser.add_argument(
        "--flight-capacity", type=int, default=4096, metavar="N",
        help="flight-recorder ring size in events",
    )
    parser.add_argument(
        "--flight-dump", default=None, metavar="FILE",
        help="JSON-lines file crash dumps are appended to "
             "(implies --flight-recorder)",
    )
    parser.add_argument(
        "--slow-query-log", default=None, metavar="FILE",
        help="append queries slower than --slow-query-seconds, with their "
             "EXPLAIN plan, to this JSON-lines file",
    )
    parser.add_argument(
        "--slow-query-seconds", type=float, default=1.0, metavar="S",
        help="slow-query threshold in seconds of evaluation time",
    )
    parser.add_argument(
        "--slow-query-analyze", action="store_true",
        help="re-run logged slow queries under a profiler (EXPLAIN ANALYZE)",
    )
    parser.add_argument(
        "--changelog", default=None, metavar="FILE",
        help="append every committed mutation to this durable replication "
             "changelog (enables shipping to replicas)",
    )
    parser.add_argument(
        "--replicate-from", default=None, metavar="HOST:PORT",
        help="run as a read replica of this primary: refuse writes, stream "
             "and apply its changelog, serve reads",
    )
    parser.add_argument(
        "--replica-name", default=None, metavar="NAME",
        help="name this replica reports to its primary (metrics label)",
    )
    parser.add_argument(
        "--sync-replicas", type=int, default=0, metavar="N",
        help="acknowledge writes only after N replicas applied them "
             "(0 = asynchronous shipping)",
    )
    parser.add_argument(
        "--ack-timeout", type=float, default=5.0, metavar="S",
        help="how long a write waits for --sync-replicas acknowledgements",
    )
    parser.add_argument(
        "--io-timeout", type=float, default=30.0, metavar="S",
        help="per-frame socket timeout; a client stalled mid-frame longer "
             "than this is dropped",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=300.0, metavar="S",
        help="reap connections idle longer than this many seconds",
    )
    parser.add_argument(
        "--live-queue", type=int, default=1024, metavar="N",
        help="bounded per-subscription delta queue for live queries "
             "(docs/LIVE.md); a subscriber lagging past this many queued "
             "deltas is resnapshotted instead of blocking writers",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="S",
        help="on SIGTERM/SIGINT, wait this long for open cursors to finish "
             "before closing",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="shard the database across N supervised worker processes and "
             "serve as their router (repro.sharding; docs/SHARDING.md) — "
             "each worker owns a private session, and with --data-dir a "
             "private storage subdirectory",
    )
    parser.add_argument(
        "--shard-map", default=None, metavar="FILE",
        help="routing overrides for --workers: one 'name = N' (pin a "
             "module/predicate to worker N) or 'name = *' (partition a "
             "base relation across all workers by tuple) per line",
    )
    parser.add_argument(
        "--worker-heartbeat", type=float, default=1.0, metavar="S",
        help="supervisor health-check interval for --workers",
    )
    return parser


def _serve(front, args, label: str, also=(), cleanup=()) -> int:
    """Announce a front end (server or router — both are FrameServers),
    serve until SIGTERM/SIGINT, drain, shut down, then run ``cleanup``.
    ``also`` are extra banner lines between the listening and telemetry
    lines."""
    host, port = front.address
    print(f"coral-server listening on {host}:{port} ({label})", flush=True)
    for line in also:
        print(line, flush=True)
    if front.telemetry_address is not None:
        thost, tport = front.telemetry_address
        print(f"coral-server telemetry on {thost}:{tport}", flush=True)

    # SIGTERM/SIGINT -> KeyboardInterrupt on the serving thread: the
    # graceful path below must NOT run inside the handler (shutdown joins
    # the serve loop, which would deadlock against itself)
    def _stop(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    try:
        front.serve_forever()
    except KeyboardInterrupt:
        print("coral-server: draining", flush=True)
        front.drain(timeout=args.drain_timeout)
    finally:
        front.shutdown()
        for close in cleanup:
            close()
    print("coral-server: clean shutdown", flush=True)
    return 0


def _run_router(args) -> int:
    """``--workers N``: boot a supervised fleet and route to it."""
    from ..sharding import ShardRouter, WorkerPool

    parser = build_parser()
    for flag, value in (
        ("--consult", args.consult),
        ("--persistent", args.persistent),
        ("--changelog", args.changelog),
        ("--replicate-from", args.replicate_from),
        ("--sync-replicas", args.sync_replicas or None),
    ):
        if value:
            parser.error(
                f"{flag} does not combine with --workers: consult through "
                f"a client, and run replication per worker "
                f"(docs/SHARDING.md)"
            )
    worker_args = ["--batch-size", str(args.batch_size)]
    if args.timeout is not None:
        worker_args += ["--timeout", str(args.timeout)]
    if args.max_tuples is not None:
        worker_args += ["--max-tuples", str(args.max_tuples)]
    if args.trace_sample or args.span_dir:
        # the fleet shares one trace plane: workers keep the router's
        # sampling rate for requests arriving untraced, drain spans into
        # the shared --span-dir, and record under stable per-index names
        worker_args += ["--process-name", "worker-{index}"]
        if args.trace_sample:
            worker_args += ["--trace-sample", str(args.trace_sample)]
        if args.span_dir:
            worker_args += ["--span-dir", args.span_dir]
    pool = WorkerPool(
        args.workers,
        data_dir=args.data_dir,
        worker_args=worker_args,
        heartbeat=args.worker_heartbeat,
    )
    pool.start()
    router = ShardRouter(
        pool,
        host=args.host,
        port=args.port,
        shard_map=args.shard_map,
        batch_size=args.batch_size,
        telemetry_port=args.telemetry_port,
        telemetry_host=args.telemetry_host,
        io_timeout=args.io_timeout,
        idle_timeout=args.idle_timeout,
        trace_sample=args.trace_sample,
        span_dir=args.span_dir,
        process_name=args.process_name or "router",
    )
    workers = [
        f"coral-server worker {handle.index} on {handle.address[0]}:"
        f"{handle.address[1]} pid {handle.pid}"
        for handle in pool.workers
    ]
    return _serve(router, args, "router", also=workers, cleanup=[pool.stop])


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers:
        return _run_router(args)
    if args.shard_map:
        build_parser().error("--shard-map needs --workers N")
    session = Session(data_directory=args.data_dir)
    for spec in args.persistent:
        name, sep, arity = spec.rpartition("/")
        if not sep or not arity.isdigit():
            build_parser().error(
                f"--persistent wants NAME/ARITY (e.g. edge/2), got {spec!r}"
            )
        session.persistent_relation(name, int(arity))
    if args.flight_recorder or args.flight_dump is not None:
        session.enable_flight_recorder(
            capacity=args.flight_capacity, dump_path=args.flight_dump
        )
    if args.slow_query_log is not None:
        session.enable_slow_query_log(
            args.slow_query_log,
            threshold=args.slow_query_seconds,
            analyze=args.slow_query_analyze,
        )
    for path in args.consult:
        session.consult(path)
    limits = None
    if args.timeout is not None or args.max_tuples is not None:
        limits = ResourceLimits(timeout=args.timeout, max_tuples=args.max_tuples)
    server = CoralServer(
        session,
        host=args.host,
        port=args.port,
        limits=limits,
        batch_size=args.batch_size,
        trace=args.trace,
        telemetry_port=args.telemetry_port,
        telemetry_host=args.telemetry_host,
        role="replica" if args.replicate_from else "primary",
        changelog=args.changelog,
        replicate_from=args.replicate_from,
        replica_name=args.replica_name,
        sync_replicas=args.sync_replicas,
        ack_timeout=args.ack_timeout,
        io_timeout=args.io_timeout,
        idle_timeout=args.idle_timeout,
        live_queue=args.live_queue,
        trace_sample=args.trace_sample,
        span_dir=args.span_dir,
        process_name=args.process_name,
    )
    return _serve(server, args, server.role, cleanup=[session.close])


if __name__ == "__main__":
    sys.exit(main())
