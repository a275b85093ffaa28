"""Differential testing harness (ISSUE 4, satellite 1).

A seeded generator produces small stratified Datalog programs plus
query/update interleavings, and every evaluation configuration —
semi-naive (BSN and PSN), pipelined, compiled (the push backend),
magic-on, magic-off, memo-on and memo-off — must return identical answer
multisets.

The generator's rule shapes are biased toward the compiled class (flat
positive literals, comparisons, arithmetic ``=``) so well over half of all
generated rules actually exercise the code generators; negation cases
exercise the per-rule interpreter fallback under ``@compiled(push).``.

The default session pushes (docs/COMPILED.md): every unflagged column runs
the push backend, an explicit ``Session(compiled=None)`` column runs the
interpreter, the cold sessions the update tests compare against are
interpreted, and the ``push`` slice adds ``@eager_eval.`` so a recursive
answer SCC is pushed too.  The **resident-state schedules** keep one
session's interned base relations across reads while tuples come and go
(the targeted schedules below, a non-ground fact, a cross-module read).

The unflagged program is the **optimizer's choice** (ISSUE 16): context
factoring where its precondition holds, supplementary magic elsewhere.  The
old default stays covered by an explicit ``@supplementary_magic.`` column in
every test, and :class:`TargetedCase` adds a right-linear recursion over
base relations, so the update tests repair factored forms.

Materialized engines use set semantics, so answers are compared as sorted
duplicate-free lists; the pipelined engine enumerates one answer per proof
and is compared as a set.  Failures dump a standalone repro file under
``tests/_diff_failures/`` so a seed can be replayed without the harness.

``REPRO_DIFF_CASES`` overrides the number of generated cases (default 200:
120 static programs + 80 query/update interleavings).

The **streamed-deltas mode** (ISSUE 8, satellite 1) points the same
generator at live queries: subscribe to a generated query, replay a random
insert/delete schedule, fold the emitted delta stream into the initial
snapshot, and require the folded view to equal a cold re-evaluation over
the final fact state at every checkpoint.  ``REPRO_LIVE_SCHEDULES``
overrides the number of schedules (default 100).

The **targeted schedules** (ISSUE 15) replay, on every generated program of
the maintainable class, the update shapes an incremental engine is most
likely to get wrong — a tuple deleted and re-inserted (or inserted and
deleted) between two reads, two pending deletes that join with each other,
a delete that disconnects followed by inserts that reconnect another way —
through memo lazy repair and through streamed live deltas, each against a
cold rebuild.  Every maintainable column also asserts that nothing was
rebuilt or evicted: the fallback must not be able to mask a broken repair.

The **Ordered Search column** (ISSUE 19) has its own generator,
:class:`OrderedCase`: programs that are stratified, so ``@no_rewriting.`` can
be the reference, but written to make ``@ordered_search.`` take every path it
has — negation and grouped aggregation over a recursive positive predicate,
calls with a repeated variable, partially bound structured arguments, a
specific call made before and again after its generalisation is done, and an
aggregate selection called with a bound non-group argument.
:class:`SccCase` (ISSUE 20) aims at the semi-naive iteration of a subgoal
SCC: non-linear and mutual recursion, two recursive literals around a base
one, calls whose bound argument is an answer of an open subgoal, a ``min``
selection deleting answers between passes, and negation and grouping over
subgoals that completed inside an earlier pass of their caller.
``REPRO_DIFF_CASES`` scales both (default 40 programs each).
The **save-module column** drives ``@save_module.`` programs through one
session — bound calls that resume a retained instance, interleaved with
inserts it must absorb and deletes that make it start afresh — against a
fresh session at every call (a tenth as many programs).
:class:`PathCase` carries list-valued accumulators — paths built with
``append/3``, costs with ``=`` — through the default rewriting,
``@ordered_search.`` and memo, against ``@no_rewriting.`` (a quarter as
many programs).
"""

import os
import random
from pathlib import Path

import pytest

from repro import Session
from repro.eval.memo import MemoPolicy

_FAILURE_DIR = Path(__file__).parent / "_diff_failures"

_TOTAL_CASES = max(10, int(os.environ.get("REPRO_DIFF_CASES", "200")))
_N_STATIC = (_TOTAL_CASES * 3) // 5
_N_INTERLEAVED = _TOTAL_CASES - _N_STATIC
_N_LIVE = max(10, int(os.environ.get("REPRO_LIVE_SCHEDULES", "100")))
_N_ORDERED = _TOTAL_CASES // 5


# ---------------------------------------------------------------------------
# program generator
# ---------------------------------------------------------------------------


class GeneratedCase:
    """A random stratified program: base facts, derived rules, queries."""

    def __init__(self, seed: int, allow_negation: bool) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.domain = list(range(1, rng.randint(4, 7) + 1))
        self.base_preds = ["b0", "b1"]
        self.derived_preds = [f"d{i}" for i in range(rng.randint(2, 4))]
        self.facts = {
            pred: self._random_facts(rng) for pred in self.base_preds
        }
        self.recursive = False
        self.has_negation = False
        self.rules = []
        for level, pred in enumerate(self.derived_preds):
            for _ in range(rng.randint(1, 3)):
                self.rules.append(
                    self._random_rule(rng, pred, level, allow_negation)
                )
        self.queries = self._random_queries(rng)

    def _random_facts(self, rng):
        count = rng.randint(3, 8)
        universe = [
            (x, y) for x in self.domain for y in self.domain if x != y
        ]
        return set(rng.sample(universe, min(count, len(universe))))

    def _positive_sources(self, level):
        """Predicates a positive body literal at this stratum may use."""
        return self.base_preds + self.derived_preds[:level]

    def _random_rule(self, rng, pred, level, allow_negation):
        sources = self._positive_sources(level)
        # copy/swap/chain/recursive/guard/incr are all in the compiled
        # class, so most generated rules exercise the code generators;
        # negation (appended below) forces the per-rule fallback
        shape = rng.choice(
            ["copy", "swap", "chain", "chain", "recursive", "guard", "incr"]
        )
        if shape == "recursive" and level == 0:
            shape = "chain"
        if shape == "copy":
            body = [f"{rng.choice(sources)}(X, Y)"]
        elif shape == "swap":
            body = [f"{rng.choice(sources)}(Y, X)"]
        elif shape == "chain":
            body = [f"{rng.choice(sources)}(X, Z)", f"{rng.choice(sources)}(Z, Y)"]
        elif shape == "guard":
            # a comparison over bound values: compiled as an inline guard
            body = [f"{rng.choice(sources)}(X, Y)", "X < Y"]
        elif shape == "incr":
            # arithmetic assignment: compiled as inline arithmetic
            body = [f"{rng.choice(sources)}(X, Z)", "Y = Z + 1"]
        else:  # recursive: d_i joins a lower predicate with itself
            self.recursive = True
            body = [f"{rng.choice(sources)}(X, Z)", f"{pred}(Z, Y)"]
        if allow_negation and shape not in ("recursive", "incr") and rng.random() < 0.4:
            # strictly-lower stratum, all variables bound: stratified + safe
            self.has_negation = True
            body.append(f"not {rng.choice(sources)}(X, Y)")
        return f"{pred}(X, Y) :- {', '.join(body)}."

    def _random_queries(self, rng):
        queries = []
        free_pred = rng.choice(self.derived_preds)
        queries.append(f"{free_pred}(X, Y)")
        for _ in range(2):
            queries.append(
                f"{rng.choice(self.derived_preds)}({rng.choice(self.domain)}, Y)"
            )
        return queries

    def program(self, flags: str = "") -> str:
        lines = []
        for pred in self.base_preds:
            for tup in sorted(self.facts[pred]):
                lines.append(f"{pred}({tup[0]}, {tup[1]}).")
        lines.append("")
        lines.append(f"module gen{self.seed}.")
        if flags:
            lines.append(flags.rstrip())
        for pred in self.derived_preds:
            lines.append(f"export {pred}(ff, bf).")
        lines.extend(self.rules)
        lines.append("end_module.")
        return "\n".join(lines) + "\n"


def _evaluate(program: str, queries, **session_kwargs):
    """All query answers for one engine configuration, as sorted lists
    (the default session pushes; ``compiled=None`` interprets)."""
    session = Session(**session_kwargs)
    session.consult_string(program)
    return {q: sorted(set(session.query(q).tuples())) for q in queries}


def _dump_failure(case, detail: str) -> Path:
    _FAILURE_DIR.mkdir(exist_ok=True)
    path = _FAILURE_DIR / f"seed_{case.seed}.txt"
    path.write_text(
        f"# differential-testing failure, seed={case.seed}\n"
        f"# replay: consult the program below and run the queries\n\n"
        f"{case.program()}\n"
        f"# queries: {case.queries}\n\n{detail}\n"
    )
    return path


def _assert_same(case, baseline, other, engine, extra=""):
    for query, expected in baseline.items():
        got = other[query]
        if got != expected:
            path = _dump_failure(
                case,
                f"# engine: {engine}\n# query: {query}\n"
                f"# expected (default): {expected}\n# got: {got}\n{extra}",
            )
            pytest.fail(
                f"seed {case.seed}: engine {engine} disagrees on {query} "
                f"(expected {expected}, got {got}); repro dumped to {path}"
            )


# ---------------------------------------------------------------------------
# static programs: the full engine matrix must agree
# ---------------------------------------------------------------------------


#: the push slice is eager, so a recursive answer SCC is pushed there too
#: (a lazy one streams per iteration through the interpreter)
_PUSH_FLAGS = "@compiled(push).\n@eager_eval."

_ENGINE_FLAGS = {
    "supmagic": "@supplementary_magic.",
    "magic": "@magic.",
    "no_rewriting": "@no_rewriting.",
    "psn": "@psn.",
    "push": _PUSH_FLAGS,
}


@pytest.mark.parametrize("seed", range(_N_STATIC))
def test_static_engines_agree(seed):
    # every third seed exercises stratified negation on the materialized
    # semi-naive configurations; the rest run the full engine matrix
    negated_case = seed % 3 == 2
    case = GeneratedCase(seed, allow_negation=negated_case)

    baseline = _evaluate(case.program(), case.queries)
    memo_run = _evaluate(case.program(), case.queries, memo=True)
    _assert_same(case, baseline, memo_run, "memo")

    engines = (
        # negation: the materialized semi-naive configurations, plus the
        # push backend, whose per-rule fallback must keep negated rules on
        # the interpreter and still agree
        {
            "supmagic": "@supplementary_magic.",
            "psn": "@psn.",
            "no_rewriting": "@no_rewriting.",
            "push": _PUSH_FLAGS,
        }
        if case.has_negation
        else _ENGINE_FLAGS
    )
    for engine, flags in engines.items():
        run = _evaluate(case.program(flags), case.queries)
        _assert_same(case, baseline, run, engine)
        if engine != "push":
            # the rewritings' own delta loops (PSN, backjumping) run on
            # the interpreter only
            run = _evaluate(case.program(flags), case.queries, compiled=None)
            _assert_same(case, baseline, run, engine + "-interpreter")

    # the default session pushes: the interpreter must answer the same
    run = _evaluate(case.program(), case.queries, compiled=None)
    _assert_same(case, baseline, run, "interpreter")

    if not case.recursive and not case.has_negation:
        run = _evaluate(case.program("@pipelining."), case.queries)
        _assert_same(case, baseline, run, "pipelining")


# ---------------------------------------------------------------------------
# query/update interleavings: persistent sessions vs cold rebuilds
# ---------------------------------------------------------------------------


#: no DRed damage budget: every stale entry must be *repaired*, so a
#: fallback (eviction, rebuild) in the maintainable class is a failure
_NO_DAMAGE_BUDGET = 1e9
_REPAIR_ONLY = MemoPolicy(damage_threshold=_NO_DAMAGE_BUDGET)


def _columns(seeds):
    """Parametrize an update test over ``seeds`` x its columns: the
    optimizer's choice and supplementary magic on every seed, the push
    backend on one block of four consecutive seeds in four.  A block spans
    every ``seed % 4`` shape (targeted, negation, plain), so the slice
    keeps the column's mix.  That is tier-1's share; CI's push-backend job
    runs ``-k push`` with ``REPRO_DIFF_CASES``/``REPRO_LIVE_SCHEDULES`` four
    times the default, as many pushed seeds as the full column has."""
    columns = [("choice", ""), ("supmagic", "@supplementary_magic."),
               ("push", _PUSH_FLAGS)]
    return pytest.mark.parametrize("seed, flags", [
        pytest.param(seed, flags, id=f"{seed}-{name}")
        for seed in seeds
        for name, flags in columns
        if name != "push" or (seed // 4) % 4 == 0
    ])


def _update_case(seed, allow_negation):
    """Every fourth schedule runs on a :class:`TargetedCase`, whose last
    query is a factored form; the rest on a plain generated program."""
    if seed % 4 == 0:
        return TargetedCase(seed)
    return GeneratedCase(seed, allow_negation)


def _random_ops(rng, case, count=8):
    """Interleaved inserts/deletes/queries over the base relations."""
    ops = []
    live = {pred: set(tuples) for pred, tuples in case.facts.items()}
    for i in range(count):
        kind = rng.choice(["insert", "delete", "query", "query"])
        if kind == "insert":
            pred = rng.choice(case.base_preds)
            tup = (rng.choice(case.domain), rng.choice(case.domain))
            live[pred].add(tup)
            ops.append(("insert", pred, tup))
        elif kind == "delete":
            pred = rng.choice(case.base_preds)
            if not live[pred]:
                continue
            tup = rng.choice(sorted(live[pred]))
            live[pred].discard(tup)
            ops.append(("delete", pred, tup))
        else:
            ops.append(("query", rng.choice(case.queries), dict(
                (p, frozenset(t)) for p, t in live.items()
            )))
    if not any(op[0] == "query" for op in ops):
        ops.append(("query", case.queries[0], dict(
            (p, frozenset(t)) for p, t in live.items()
        )))
    return ops


@_columns(range(10_000, 10_000 + _N_INTERLEAVED))
def test_update_interleavings_agree(seed, flags):
    case = _update_case(seed, allow_negation=seed % 4 == 3)
    rng = random.Random(seed ^ 0xDEADBEEF)
    ops = _random_ops(rng, case)

    memo_session = Session(memo=_REPAIR_ONLY)
    memo_session.consult_string(case.program(flags))
    plain_session = Session()
    plain_session.consult_string(case.program(flags))

    trail = []
    for op in ops:
        if op[0] in ("insert", "delete"):
            kind, pred, tup = op
            getattr(memo_session, kind)(pred, *tup)
            getattr(plain_session, kind)(pred, *tup)
            trail.append(f"{kind} {pred}{tup}")
            continue

        _, query, live = op
        # a cold interpreted session over the current fact state is ground
        # truth
        saved = case.facts
        case.facts = {pred: set(t) for pred, t in live.items()}
        cold = _evaluate(case.program(), [query], compiled=None)[query]
        program_now = case.program()
        case.facts = saved

        got_memo = sorted(set(memo_session.query(query).tuples()))
        got_plain = sorted(set(plain_session.query(query).tuples()))
        detail = "# ops so far:\n# " + "\n# ".join(trail or ["(none)"])
        if got_plain != cold or got_memo != cold:
            path = _dump_failure(
                case,
                f"# query after updates: {query}\n"
                f"# cold (ground truth): {cold}\n"
                f"# persistent no-memo:  {got_plain}\n"
                f"# persistent memo:     {got_memo}\n"
                f"# program at failure:\n{program_now}\n{detail}",
            )
            pytest.fail(
                f"seed {seed}: after updates, {query} diverged "
                f"(cold={cold}, plain={got_plain}, memo={got_memo}); "
                f"repro dumped to {path}"
            )
        trail.append(f"query {query} -> {len(cold)} answers")

    if not case.has_negation:
        # the maintainable class: every stale entry was repaired in place
        # (the damage budget is off, so an eviction can only be a failure)
        assert memo_session.memo.snapshot()["evictions"] == 0, trail


# ---------------------------------------------------------------------------
# streamed-deltas mode: fold a subscription's delta stream, compare cold
# ---------------------------------------------------------------------------


@_columns(range(20_000, 20_000 + _N_LIVE))
def test_streamed_deltas_fold_to_cold_truth(seed, flags):
    """Subscribe to a generated query, replay a random update schedule,
    fold the delta stream into the snapshot, and require the folded view
    to equal a cold re-evaluation at every query checkpoint."""
    from repro.terms import from_arg

    case = _update_case(seed, allow_negation=False)
    rng = random.Random(seed ^ 0xBEEF)
    ops = _random_ops(rng, case)
    # every schedule folds the free query; odd seeds add a bound goal too,
    # targeted cases their factored one
    queries = [case.queries[0]]
    if seed % 2:
        queries.append(case.queries[1])
    if isinstance(case, TargetedCase):
        queries.append(case.queries[-1])

    session = Session()
    session.consult_string(case.program(flags))

    folded = {}  # query -> {tuple.key(): python-value tuple}
    views = {}
    for query in queries:
        state = folded[query] = {}

        def sink(deltas, state=state):
            for sign, tup in deltas:
                if sign > 0:
                    state[tup.key()] = tuple(from_arg(a) for a in tup.args)
                else:
                    state.pop(tup.key(), None)

        view = session.subscribe(f"?- {query}.", sink)
        views[query] = view
        for tup in view.snapshot():
            state[tup.key()] = tuple(from_arg(a) for a in tup.args)
    session.live.damage_threshold = _NO_DAMAGE_BUDGET

    trail = []
    for op in ops:
        if op[0] in ("insert", "delete"):
            kind, pred, tup = op
            getattr(session, kind)(pred, *tup)
            trail.append(f"{kind} {pred}{tup}")
            continue
        _, _, live = op
        saved = case.facts
        case.facts = {pred: set(t) for pred, t in live.items()}
        cold_all = _evaluate(case.program(), queries, compiled=None)
        case.facts = saved
        for query in queries:
            cold = cold_all[query]
            got = sorted(set(folded[query].values()))
            if got != cold:
                detail = "# ops so far:\n# " + "\n# ".join(trail or ["(none)"])
                path = _dump_failure(
                    case,
                    f"# streamed-deltas divergence on: {query}\n"
                    f"# cold (ground truth): {cold}\n"
                    f"# folded delta stream: {got}\n"
                    f"# view: {views[query]!r}\n{detail}",
                )
                pytest.fail(
                    f"seed {seed}: folded delta stream for {query} diverged "
                    f"(cold={cold}, folded={got}); repro dumped to {path}"
                )
        trail.append(f"checkpoint -> ok")

    # final checkpoint regardless of the schedule's query placement
    for query in queries:
        cold = sorted(set(session.query(query).tuples()))
        got = sorted(set(folded[query].values()))
        assert got == cold, (
            f"seed {seed}: final folded view for {query} diverged: "
            f"cold={cold}, folded={got}"
        )
    assert session.live.snapshot()["rebuilds"] == 0, trail


# ---------------------------------------------------------------------------
# targeted schedules: the update shapes a repair engine gets wrong first
# ---------------------------------------------------------------------------


class TargetedCase(GeneratedCase):
    """A generated positive program plus one predicate that is certain to
    exercise the hard shapes: ``hop`` joins two base literals (so two
    pending deletes can meet in one rule) and ``far`` is its transitive
    closure (so a delete can disconnect and an insert reconnect).
    ``reach`` is a right-linear recursion over base relations only, which
    the optimizer factors: its repairs run on a context relation."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed, allow_negation=False)
        self.derived_preds += ["hop", "far", "reach"]
        self.rules += [
            "hop(X, Y) :- b0(X, Z), b1(Z, Y).",
            "far(X, Y) :- hop(X, Y).",
            "far(X, Y) :- hop(X, Z), far(Z, Y).",
            "reach(X, Y) :- b1(X, Y).",
            "reach(X, Y) :- b0(X, Z), reach(Z, Y).",
        ]
        source = min(x for x, _ in self.facts["b0"])
        self.queries = [
            self.queries[0], "hop(X, Y)", f"far({source}, Y)",
            f"reach({source}, Y)",
        ]

    def assert_factored(self, session, flags):
        """The coverage this case exists for must not silently go away."""
        compiled = session.modules.compiled_form(f"gen{self.seed}", "reach", "bf")
        supmagic = "@supplementary_magic." in flags
        expected = "supplementary_magic" if supmagic else "factoring"
        assert compiled.rewritten.technique == expected, compiled.choice


def _targeted_schedules(case, rng):
    """name -> list of update batches; the caller reads between batches."""
    b0, b1 = sorted(case.facts["b0"]), sorted(case.facts["b1"])
    present = rng.choice(b0)
    absent = rng.choice([
        (x, y) for x in case.domain for y in case.domain
        if x != y and (x, y) not in case.facts["b0"]
    ])
    schedules = {
        "delete_then_reinsert": [
            [("delete", "b0", present), ("insert", "b0", present)],
        ],
        "insert_then_delete": [
            [("insert", "b0", absent), ("delete", "b0", absent)],
        ],
    }
    joining = [(left, right) for left in b0 for right in b1 if left[1] == right[0]]
    if joining:
        left, right = rng.choice(joining)
        schedules["two_deletes_that_join"] = [
            [("delete", "b0", left), ("delete", "b1", right)],
            [("insert", "b1", right)],
            [("insert", "b0", left)],
        ]
        # cut hop(x, y) at its b0 half, then route x to the same b1 tuple
        # through a fresh middle node: b0(x, w), b1(w, y)
        fresh = max(case.domain) + 1
        schedules["disconnect_then_reconnect_elsewhere"] = [
            [("delete", "b0", left)],
            [("insert", "b0", (left[0], fresh)),
             ("insert", "b1", (fresh, right[1]))],
            [("delete", "b1", right)],
        ]
    return schedules


def _apply_batch(session, case_facts, batch):
    for kind, pred, tup in batch:
        getattr(session, kind)(pred, *tup)
        (case_facts[pred].add if kind == "insert"
         else case_facts[pred].discard)(tup)


def _cold(case, facts_now, queries):
    """Ground truth: a cold interpreted session over ``facts_now``."""
    saved = case.facts
    case.facts = facts_now
    try:
        return _evaluate(case.program(), queries, compiled=None)
    finally:
        case.facts = saved


@_columns(range(30_000, 30_000 + max(10, _N_LIVE // 2)))
def test_targeted_schedules_repair_without_falling_back(seed, flags):
    from repro.terms import from_arg

    case = TargetedCase(seed)
    schedules = _targeted_schedules(case, random.Random(seed ^ 0xFACADE))
    for name, batches in schedules.items():
        # memo lazy repair: whole batches are pending at each read
        facts_now = {pred: set(tuples) for pred, tuples in case.facts.items()}
        memo_session = Session(memo=_REPAIR_ONLY)
        memo_session.consult_string(case.program(flags))
        case.assert_factored(memo_session, flags)
        for query in case.queries:
            memo_session.query(query).tuples()  # retain an entry per goal
        for batch in batches:
            _apply_batch(memo_session, facts_now, batch)
            cold = _cold(case, facts_now, case.queries)
            for query in case.queries:
                got = sorted(set(memo_session.query(query).tuples()))
                assert got == cold[query], (
                    f"seed {seed}, {name}: memo repair of {query} diverged "
                    f"after {batch}: cold={cold[query]}, memo={got}"
                )
        stats = memo_session.memo.snapshot()
        assert stats["evictions"] == 0, (seed, name, stats)
        assert stats["insert_refreshes"] + stats["delete_refreshes"] > 0

        # streamed live deltas: every update is repaired as it commits
        facts_now = {pred: set(tuples) for pred, tuples in case.facts.items()}
        live_session = Session()
        live_session.consult_string(case.program(flags))
        folded = {}
        for query in case.queries:
            state = folded[query] = {}

            def sink(deltas, state=state):
                for sign, tup in deltas:
                    if sign > 0:
                        assert tup.key() not in state, (seed, name, tup)
                        state[tup.key()] = tuple(from_arg(a) for a in tup.args)
                    else:
                        del state[tup.key()]  # only published answers leave

            view = live_session.subscribe(f"?- {query}.", sink)
            for tup in view.snapshot():
                state[tup.key()] = tuple(from_arg(a) for a in tup.args)
        live_session.live.damage_threshold = _NO_DAMAGE_BUDGET
        for batch in batches:
            _apply_batch(live_session, facts_now, batch)
            cold = _cold(case, facts_now, case.queries)
            for query in case.queries:
                got = sorted(folded[query].values())
                assert got == cold[query], (
                    f"seed {seed}, {name}: folded deltas of {query} diverged "
                    f"after {batch}: cold={cold[query]}, folded={got}"
                )
        stats = live_session.live.snapshot()
        assert stats["rebuilds"] == 0, (seed, name, stats)


# ---------------------------------------------------------------------------
# push's resident state: one session's interned bases against cold reads
# ---------------------------------------------------------------------------


def _outer_module(case, source):
    """A module whose one rule reads ``far``, another module's export."""
    return (
        f"module outer{case.seed}.\n@eager_eval.\nexport top(bf).\n"
        f"top(X, Y) :- far(X, Y).\nend_module.\n"
    ), f"top({source}, Y)"


@pytest.mark.parametrize("seed", range(60_000, 60_000 + max(4, _N_LIVE // 8)))
def test_resident_push_state_agrees_with_cold_interpreter(seed):
    """One default session keeps its interned bases across reads while base
    tuples come and go (including a non-ground one); every read must match
    a cold interpreted session over the facts of that moment."""
    from repro.terms import Var

    case = TargetedCase(seed)
    source = min(x for x, _ in case.facts["b0"])
    outer, outer_query = _outer_module(case, source)
    queries = case.queries + [outer_query]
    session = Session()
    session.consult_string(case.program("@eager_eval.") + outer)
    facts_now = {pred: set(tuples) for pred, tuples in case.facts.items()}
    loose = ""  # the non-ground fact, while present

    def answers(target, asked):
        # a variable prints with a session-specific id: compare it as "_";
        # whether an answer a non-ground one subsumes is also stored
        # depends on which arrived first, so compare without those
        out = {}
        for q in asked:
            found = {
                tuple(str(arg) if arg.is_ground() else "_"
                      for arg in answer.tuple.args)
                for answer in target.query(q)
            }
            out[q] = sorted(
                t for t in found
                if not any(
                    u != t and all(b in (a, "_") for a, b in zip(t, u))
                    for u in found
                )
            )
        return out

    def check(step, asked=queries):
        saved = case.facts
        case.facts = facts_now
        try:
            cold = Session(compiled=None)
            cold.consult_string(case.program() + loose + outer)
        finally:
            case.facts = saved
        assert answers(session, asked) == answers(cold, asked), (
            f"seed {seed}, after {step}"
        )

    check("consult")
    rng = random.Random(seed ^ 0x9E5)
    for schedule in _targeted_schedules(case, rng).values():
        for batch in schedule:
            _apply_batch(session, facts_now, batch)
            check(batch)
    # a non-ground base fact: those runs fall back, the next ones push again
    # (asked through the bound forms only: an all-free form evaluates every
    # rule, and a guard over an unbound variable raises in any engine)
    session.insert("b1", source, Var("Loose"))
    loose = f"b1({source}, Loose).\n"
    check("a non-ground insert", queries[2:])
    session.delete("b1", source, Var("Loose"))
    loose = ""
    check("its delete")


# ---------------------------------------------------------------------------
# save-module: resumption across calls and updates against cold sessions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50_000, 50_000 + _TOTAL_CASES // 10))
def test_save_module_resumption_agrees_with_cold(seed):
    case = _update_case(seed, allow_negation=seed % 3 == 2)
    rng = random.Random(seed ^ 0x5AFE)
    session = Session()
    session.consult_string(case.program("@save_module."))
    facts_now = {pred: set(tuples) for pred, tuples in case.facts.items()}
    trail = []
    for _ in range(12):
        kind = rng.choice(["call", "call", "call", "insert", "delete"])
        if kind == "call":
            pred = rng.choice(case.derived_preds)
            query = f"{pred}({rng.choice(case.domain)}, Y)"
            got = sorted(set(session.query(query).tuples()))
            cold = _cold(case, facts_now, [query])[query]
            assert got == cold, (
                f"seed {seed}: save-module {query} diverged after "
                f"{trail or '(nothing)'}: cold={cold}, saved={got}"
            )
            trail.append(query)
            continue
        pred = rng.choice(case.base_preds)
        if kind == "insert":
            tup = (rng.choice(case.domain), rng.choice(case.domain))
        elif facts_now[pred]:
            tup = rng.choice(sorted(facts_now[pred]))
        else:
            continue
        _apply_batch(session, facts_now, [(kind, pred, tup)])
        trail.append(f"{kind} {pred}{tup}")


# ---------------------------------------------------------------------------
# Ordered Search: subgoal completion against plain bottom-up evaluation
# ---------------------------------------------------------------------------


class OrderedCase:
    """A random program for ``@ordered_search.`` against ``@no_rewriting.``.

    ``r`` is a transitive closure (right-, left- or non-linear, over a graph
    that may have cycles); every other predicate calls it in a way Ordered
    Search treats differently from a plain call:

    * ``cut``/``low``/``hub`` negate it, ``fan``/``low`` aggregate over it —
      both legal only over *done* subgoals;
    * ``twice`` calls ``r(x, y)``, then ``r(x, W)``, then ``r(x, y)`` again:
      the first specific call precedes its generalisation, later ones (other
      ``y``) find the generalisation done;
    * ``cyc``/``hub`` call ``r`` with a repeated variable, which ``r(x, W)``
      subsumes but which subsumes no ``r(x, y)`` with ``x != y``;
    * ``via`` calls ``step`` with a partially bound structured argument and
      then with that argument ground;
    * ``cost`` carries a ``min`` selection (no ``any``: which witness
      survives is engine-dependent) and is queried with its cost bound.
    """

    _EXPORTS = [
        "r(ff, bf, fb, bb)", "cut(ff, bf)", "fan(ff, bf, bb)", "low(ff, bf)",
        "twice(fff, bff)", "cyc(f, b)", "hub(ff, bf)", "step(ff, bf, bb)",
        "via(ff, bf)", "cost(fff, bff, bbf, bfb, bbb)", "best(fff, bff)",
    ]

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.domain = list(range(1, rng.randint(4, 6) + 1))
        universe = [(x, y) for x in self.domain for y in self.domain]
        self.facts = {
            pred: set(rng.sample(universe, rng.randint(3, 8)))
            for pred in ("b0", "b1")
        }
        e, f = rng.sample(["b0", "b1"], 2)
        recursion = rng.choice([
            f"r(X, Y) :- {e}(X, Z), r(Z, Y).",
            f"r(X, Y) :- r(X, Z), {e}(Z, Y).",
            "r(X, Y) :- r(X, Z), r(Z, Y).",
        ])
        self.rules = [
            f"r(X, Y) :- {e}(X, Y).",
            recursion,
            f"cut(X, Y) :- {f}(X, Y), not r(Y, X).",
            "fan(X, count(<Y>)) :- r(X, Y).",
            "low(X, min(<Y>)) :- r(X, Y), not cut(X, Y).",
            f"twice(X, Y, W) :- {f}(X, Y), r(X, Y), r(X, W), r(X, Y).",
            "cyc(X) :- r(X, X).",
            f"hub(X, Y) :- r(Z, Z), {f}(Z, X), r(X, Y), not cut(X, Y).",
            "step(p(X, Y), s(Y)) :- r(X, Y).",
            f"via(X, Y) :- {f}(X, Z), step(p(Z, Y), S), step(p(Z, Y), s(Y)).",
            # an edge weighs the sum of its ends: positive, so min(C) is
            # reached on cyclic graphs too
            f"cost(X, Y, C) :- {e}(X, Y), C = X + Y.",
            f"cost(X, Y, C) :- cost(X, Z, C1), {e}(Z, Y), C = C1 + Z + Y.",
            "best(X, Y, C) :- cost(X, Y, C), fan(X, N), N > 1.",
        ]
        a, b = rng.choice(self.domain), rng.choice(self.domain)
        costs = rng.sample(range(4, 15), 4)
        self.queries = [
            "r(X, Y)", f"r({a}, Y)", f"r(X, {b})", f"r({a}, {b})", "r(X, X)",
            "cut(X, Y)", f"cut({a}, Y)",
            "fan(X, N)", f"fan({a}, N)", f"fan({a}, {rng.randint(1, 3)})",
            "low(X, M)", f"low({a}, M)",
            "twice(X, Y, W)", f"twice({a}, Y, W)",
            "cyc(X)", f"cyc({a})",
            "hub(X, Y)", f"hub({a}, Y)",
            "step(P, S)", f"step(p({a}, Y), S)", f"step(p({a}, Y), s({b}))",
            "via(X, Y)", f"via({a}, Y)",
            "cost(X, Y, C)", f"cost({a}, Y, C)", f"cost({a}, {b}, C)",
            *[f"cost({a}, Y, {c})" for c in costs],
            *[f"cost({a}, {b}, {c})" for c in costs],
            "best(X, Y, C)", f"best({a}, Y, C)",
        ]

    def program(self, flags: str = "") -> str:
        lines = [
            f"{pred}({x}, {y})."
            for pred in sorted(self.facts)
            for x, y in sorted(self.facts[pred])
        ]
        lines += ["", f"module ord{self.seed}."]
        if flags:
            lines.append(flags)
        lines += [f"export {form}." for form in self._EXPORTS]
        lines.append("@aggregate_selection cost(X, Y, C) (X, Y) min(C).")
        return "\n".join(lines + self.rules + ["end_module."]) + "\n"


def _evaluate_terms(program: str, queries, **session_kwargs):
    """As :func:`_evaluate`, for answers that hold structured terms."""
    session = Session(**session_kwargs)
    session.consult_string(program)
    return {q: sorted({str(a) for a in session.query(q).all()}) for q in queries}


@pytest.mark.parametrize("seed", range(40_000, 40_000 + _N_ORDERED))
def test_ordered_search_agrees_with_no_rewriting(seed):
    case = OrderedCase(seed)
    baseline = _evaluate_terms(case.program("@no_rewriting."), case.queries)
    run = _evaluate_terms(case.program("@ordered_search."), case.queries)
    _assert_same(case, baseline, run, "ordered_search")
    assert any(baseline.values()), "a case with no answers checks nothing"


class SccCase:
    """Recursions whose subgoals form SCCs that Ordered Search iterates,
    for ``@ordered_search.`` against ``@no_rewriting.``.

    Every predicate makes a later pass of some rule differ from its first:

    * ``t`` is the non-linear closure: a fresh ``t(x, z, _)`` makes the *new
      call* ``t(z, Y, _)``, which must see that subgoal's old answers.  It
      (and ``w``) carries the length of the derivation, bounded, so that no
      other derivation of the same pair hides a combination never joined;
    * ``od``/``ev`` are mutually recursive with different binding patterns;
    * ``w`` has two recursive literals around a base literal;
    * ``up``/``dn``: a call first made in a later pass of ``dn(x, _)``
      reaches the still-open ``up`` subgoal *below* it;
    * ``rl`` calls the derived (and at once done) ``lk`` before its
      recursive literal: an old prefix over a done callee must go on;
    * ``sp``/``sq`` carry a ``min`` selection, non-linear and right-linear:
      dominated answers are deleted between passes;
    * ``gr`` calls the grouped ``deg`` and the negated ``blk`` from inside
      its recursion: their subgoals complete inside one pass of ``gr`` and
      are met again, done, by the next.
    """

    _EXPORTS = [
        "t(fff, bff, fbf, bbf)", "od(ff, bf, fb)", "ev(ff, bf, fb)",
        "w(fff, bff, bbf)", "up(ff, bf)", "dn(ff, bf)", "rl(ff, bf, fb)",
        "sp(fff, bff, bbf, bfb)", "sq(fff, bff, bbf)", "gr(ff, bf, bb)",
        "deg(ff, bf)",
    ]

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.domain = list(range(1, rng.randint(4, 7) + 1))
        universe = [(x, y) for x in self.domain for y in self.domain]
        self.facts = {
            pred: set(rng.sample(universe, rng.randint(3, 9)))
            for pred in ("b0", "b1")
        }
        e, f = rng.sample(["b0", "b1"], 2)
        ev_rule = rng.choice([
            f"ev(X, Y) :- od(Z, Y), {e}(X, Z).",
            f"ev(X, Y) :- {e}(X, Z), od(Z, Y).",
            f"ev(X, Y) :- od(X, Z), {f}(Z, Y).",
        ])
        w_rule = rng.choice([
            f"w(X, Y, N) :- w(X, Z, N1), {f}(Z, U), w(U, Y, N2), "
            f"N = N1 + N2, N < {rng.randint(4, 6)}.",
            f"w(X, Y, N) :- w(X, Z, N1), {f}(U, Z), w(U, Y, N2), "
            f"N = N1 + N2, N < {rng.randint(4, 6)}.",
            f"w(X, Y, N) :- w(Z, Y, N1), {f}(Z, U), w(X, U, N2), "
            f"N = N1 + N2, N < {rng.randint(4, 6)}.",
        ])
        self.rules = [
            f"t(X, Y, 1) :- {e}(X, Y).",
            "t(X, Y, N) :- t(X, Z, N1), t(Z, Y, N2), N = N1 + N2, "
            f"N < {rng.randint(4, 7)}.",
            f"od(X, Y) :- {e}(X, Y).",
            f"od(X, Y) :- {e}(X, Z), ev(Z, Y).",
            ev_rule,
            f"w(X, Y, 1) :- {e}(X, Y).",
            w_rule,
            f"up(X, Y) :- {f}(X, Z), dn(Z, W), {e}(W, Y).",
            f"dn(X, Y) :- dn(X, Z), {f}(Z, U), up(U, Y).",
            f"dn(X, Y) :- {e}(X, Y).",
            f"dn(X, Y) :- dn(X, Z), {e}(Z, Y).",
            f"lk(X, Y) :- {e}(X, Y).",
            f"lk(X, Y) :- {f}(X, Z), {f}(Z, Y).",
            "rl(X, Y) :- lk(X, Y).",
            "rl(X, Y) :- lk(X, Z), rl(Z, Y).",
            # positive weights, so min(C) is reached on cyclic graphs too
            f"sp(X, Y, C) :- {e}(X, Y), C = X + Y.",
            "sp(X, Y, C) :- sp(X, Z, C1), sp(Z, Y, C2), C = C1 + C2.",
            f"sq(X, Y, C) :- {f}(X, Y), C = X * Y.",
            f"sq(X, Y, C) :- {f}(X, Z), sq(Z, Y, C1), C = C1 + X.",
            f"deg(X, count(<Y>)) :- {f}(X, Y).",
            f"blk(X, Y) :- {f}(X, Y), {f}(Y, X).",
            f"gr(X, Y) :- {e}(X, Y).",
            f"gr(X, Y) :- gr(X, Z), deg(Z, N), N > {rng.randint(0, 1)}, "
            f"{e}(Z, Y), not blk(Z, Y).",
        ]
        a, b = rng.choice(self.domain), rng.choice(self.domain)
        self.queries = [
            "t(X, Y, N)", f"t({a}, Y, N)", f"t(X, {b}, N)", f"t({a}, {b}, N)",
            "od(X, Y)", f"od({a}, Y)", f"od(X, {b})",
            "ev(X, Y)", f"ev({a}, Y)", f"ev(X, {b})",
            "w(X, Y, N)", f"w({a}, Y, N)", f"w({a}, {b}, N)",
            "up(X, Y)", f"up({a}, Y)", "dn(X, Y)", f"dn({a}, Y)",
            "rl(X, Y)", f"rl({a}, Y)", f"rl(X, {b})",
            "sp(X, Y, C)", f"sp({a}, Y, C)", f"sp({a}, {b}, C)",
            f"sp({a}, Y, {rng.randint(4, 12)})",
            "sq(X, Y, C)", f"sq({a}, Y, C)", f"sq({a}, {b}, C)",
            "gr(X, Y)", f"gr({a}, Y)", f"gr({a}, {b})",
            "deg(X, N)", f"deg({a}, N)",
        ]

    def program(self, flags: str = "") -> str:
        lines = [
            f"{pred}({x}, {y})."
            for pred in sorted(self.facts)
            for x, y in sorted(self.facts[pred])
        ]
        lines += ["", f"module scc{self.seed}."]
        if flags:
            lines.append(flags)
        lines += [f"export {form}." for form in self._EXPORTS]
        lines.append("@aggregate_selection sp(X, Y, C) (X, Y) min(C).")
        lines.append("@aggregate_selection sq(X, Y, C) (X, Y) min(C).")
        return "\n".join(lines + self.rules + ["end_module."]) + "\n"


# 41_000.. was the range used while the semi-naive SCC loop was written
@pytest.mark.parametrize("seed", range(42_000, 42_000 + _N_ORDERED))
def test_ordered_search_scc_agrees_with_no_rewriting(seed):
    case = SccCase(seed)
    baseline = _evaluate_terms(case.program("@no_rewriting."), case.queries)
    run = _evaluate_terms(case.program("@ordered_search."), case.queries)
    _assert_same(case, baseline, run, "ordered_search")
    assert any(baseline.values()), "a case with no answers checks nothing"


class PathCase:
    """Programs whose answers carry list-valued accumulators — paths built
    with ``append/3`` in both of its deterministic shapes and costs with
    ``=`` — for the default rewriting, ``@ordered_search.`` and memo against
    ``@no_rewriting.``.

    * ``sp`` is the paper's Figure 3 (a ``min`` selection on the cost, no
      ``any`` on the path: every cheapest path is an answer, so the answer
      set is engine-independent), on a graph that may have cycles;
    * ``walk`` prepends to a bounded-length walk (``append([Y], P, P1)``)
      and ``tour`` appends to its end (``append(P, [Y], P1)``);
    * ``fwd`` is right-linear and builds its list in the head;
    * ``hops``/``via``/``far`` read the lists back with ``length/2``,
      ``member/2`` and a grouped ``max``, and ``pre`` splits one with
      ``append/3`` in its relational (free, partial, ground) mode;
    * queries bind a path argument to a ground list, to a partial list
      ``[Y|T]`` and to a list with a variable element.
    """

    _EXPORTS = [
        "sp(ffff, bfff, bbff, bbbf)", "walk(ffff, bfff, bbff, bfbf)",
        "tour(ff, bf)", "fwd(ffff, bfff, bbff)", "hops(fff, bff)",
        "via(fff, bff)", "far(ff, bf)", "pre(ff, bf)",
    ]

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.domain = list(range(1, rng.randint(4, 6) + 1))
        pairs = [(x, y) for x in self.domain for y in self.domain if x != y]
        self.edges = {
            (x, y, rng.randint(1, 3))
            for x, y in rng.sample(pairs, rng.randint(4, 9))
        }
        bound = rng.randint(2, 3)
        self.rules = [
            "sp(X, Y, [e(X, Y)], C) :- e(X, Y, C).",
            "sp(X, Y, P1, C1) :- sp(X, Z, P, C), e(Z, Y, EC), "
            "append([e(Z, Y)], P, P1), C1 = C + EC.",
            "walk(X, Y, [Y, X], 1) :- e(X, Y, _).",
            f"walk(X, Y, P1, N1) :- walk(X, Z, P, N), N < {bound}, e(Z, Y, _), "
            "append([Y], P, P1), N1 = N + 1.",
            "tour(X, [X]) :- e(X, _, _).",
            f"tour(X, P1) :- tour(X, P), length(P, N), N < {bound + 1}, "
            "last(P, Z), e(Z, Y, _), append(P, [Y], P1).",
            "fwd(X, Y, [X, Y], W) :- e(X, Y, W).",
            f"fwd(X, Y, [X|P], W) :- e(X, Z, W1), fwd(Z, Y, P, W2), "
            f"W = W1 + W2, W < {2 * bound + 2}.",
            "hops(X, Y, N) :- sp(X, Y, P, C), length(P, N).",
            "via(X, Y, Z) :- sp(X, Y, P, C), member(e(Z, _), P).",
            "far(X, max(<C>)) :- sp(X, Y, P, C).",
            "pre(X, F) :- tour(X, P), append(F, [Y], P).",
        ]
        a, b = rng.choice(self.domain), rng.choice(self.domain)
        self.queries = [
            "sp(X, Y, P, C)", f"sp({a}, Y, P, C)",
            f"sp({a}, {b}, [e({a}, {b})], C)", f"sp({a}, Y, [e(Z, Y)|T], C)",
            f"walk({a}, Y, P, N)", f"walk({a}, Y, [Y, {a}], N)",
            f"walk({a}, Y, [{b}, W, {a}], N)", f"tour({a}, P)",
            "fwd(X, Y, P, W)", f"fwd({a}, Y, P, W)",
            f"hops({a}, Y, N)", f"via({a}, Y, Z)", "far(X, C)", f"pre({a}, F)",
        ]

    def program(self, flags: str = "") -> str:
        lines = [f"e({x}, {y}, {w})." for x, y, w in sorted(self.edges)]
        lines += ["", f"module path{self.seed}."]
        if flags:
            lines.append(flags)
        lines += [f"export {form}." for form in self._EXPORTS]
        lines.append("@aggregate_selection sp(X, Y, P, C) (X, Y) min(C).")
        return "\n".join(lines + self.rules + ["end_module."]) + "\n"


# 43_000.. was the range used while the structured-term fast paths were
# written
@pytest.mark.parametrize("seed", range(44_000, 44_000 + _N_ORDERED // 4))
def test_list_paths_agree_with_no_rewriting(seed):
    case = PathCase(seed)
    baseline = _evaluate_terms(case.program("@no_rewriting."), case.queries)
    assert any(baseline.values()), "a case with no answers checks nothing"
    for engine, flags, kwargs in (
        ("default", "", {}),
        ("ordered_search", "@ordered_search.", {}),
        ("memo", "", {"memo": True}),
    ):
        run = _evaluate_terms(case.program(flags), case.queries, **kwargs)
        _assert_same(case, baseline, run, engine)
