"""The capability table (``repro.optimizer.capabilities``): the verdicts it
returns, and docs/INTERNALS.md's copy of it."""

import re
from pathlib import Path

import pytest

from repro import Session
from repro.optimizer.capabilities import CONSUMERS, OBSTRUCTIONS
from repro.relations import ListRelation

INTERNALS = Path(__file__).resolve().parent.parent / "docs" / "INTERNALS.md"


def _doc_rows():
    """reason -> (push, maintain, absorb) marks, from the doc's table."""
    text = INTERNALS.read_text()
    table = text[text.index("| obstruction | reason |"):].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[1]] = tuple(cells[2:5])
    return rows


def test_doc_table_rows_are_the_reasons_the_table_returns():
    expected = {
        reason.replace("{}", "…"): tuple(
            "no" if consumer in blocks else "yes" for consumer in CONSUMERS
        )
        for reason, blocks in OBSTRUCTIONS.values()
    }
    assert _doc_rows() == expected


#: one program per obstruction the verdicts can name (the form's and the
#: session's), each read through the instance a call would build
_PROGRAMS = {
    "pipelining": "@pipelining.\np(X, Y) :- e(X, Y).",
    "save_module": "@save_module.\np(X, Y) :- e(X, Y).",
    "ordered_search": "@ordered_search.\np(X, Y) :- e(X, Y).",
    "aggregate_selection": "@aggregate_selection p(X, Y) (X) min(Y).\n"
                           "p(X, Y) :- e(X, Y).",
    "multiset": "@multiset.\np(X, Y) :- e(X, Y).",
    "grouping": "p(X, min(<Y>)) :- e(X, Y).",
    "negation": "p(X, Y) :- e(X, Y), not e(Y, X).",
    "impure": "p(X, Y) :- e(X, Y), assertz(seen(X)).",
    "cross_module": "p(X, Y) :- q(X, Y).\nend_module.\n"
                    "module n.\nexport q(ff).\nq(X, Y) :- e(X, Y).",
    "unmarked": "p(X, Y) :- e(X, Y), pe(X).",
    "traced": "p(X, Y) :- e(X, Y).",  # with the session tracing derivations
}


@pytest.mark.parametrize("obstruction", sorted(_PROGRAMS))
def test_each_obstruction_blocks_its_consumers(obstruction, tmp_path):
    session = Session(data_directory=str(tmp_path))
    session.persistent_relation("pe", 1)
    if obstruction == "traced":
        session.enable_tracing()
    session.consult_string(
        f"e(1, 2).\nmodule m.\nexport p(ff).\n{_PROGRAMS[obstruction]}\n"
        "end_module.\n"
    )
    verdicts = session.modules.instance_for("m", "p", "ff").capabilities
    reason, blocks = OBSTRUCTIONS[obstruction]
    pattern = re.escape(reason).replace(re.escape("{}"), ".+")
    for consumer in CONSUMERS:
        verdict = getattr(verdicts, consumer)
        if consumer in blocks:
            assert re.fullmatch(pattern, verdict), (consumer, verdict)
        else:
            assert verdict is None, (consumer, verdict)


def test_a_plain_module_blocks_nothing():
    session = Session()
    session.consult_string(
        "e(1, 2).\nmodule m.\n@compiled.\nexport p(ff).\n"
        "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\nend_module.\n"
    )
    verdicts = session.modules.instance_for("m", "p", "ff").capabilities
    assert all(getattr(verdicts, consumer) is None for consumer in CONSUMERS)
    assert "maintain: yes" in session.explain("p(X, Y)")


def test_tracing_keeps_proof_trees_on_the_default_session():
    session = Session()
    tracer = session.enable_tracing()
    session.consult_string(
        "e(1, 2). e(2, 3).\nmodule m.\nexport p(bf).\n"
        "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\nend_module.\n"
    )
    assert sorted(session.query("p(1, Y)").tuples()) == [(1, 2), (1, 3)]
    assert "push: no — derivations are being traced" in session.explain("p(1, Y)")
    assert "via" in tracer.why("fans_p(3)")
    session.disable_tracing()
    assert "push: yes" in session.explain("p(1, Y)")


def test_a_lazy_recursive_answer_scc_is_a_recorded_fallback():
    session = Session()
    session.consult_string(
        "e(1, 2). e(2, 3).\nmodule m.\nexport p(ff).\n"
        "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\nend_module.\n"
    )
    text = session.explain("p(X, Y)")
    assert "push: yes" in text
    assert "compile (push): 0 rule(s) compiled, 2 interpreted" in text
    assert "fallback x2: lazy answers stream per iteration" in text
    eager = Session()
    eager.consult_string(
        "e(1, 2). e(2, 3).\nmodule m.\n@eager_eval.\nexport p(ff).\n"
        "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\nend_module.\n"
    )
    assert "compile (push): 2 rule(s) compiled" in eager.explain("p(X, Y)")


_TC = (
    "module m.\nexport p(bf).\n{flags}p(X, Y) :- e(X, Y).\n"
    "p(X, Y) :- e(X, Z), p(Z, Y).\nend_module.\n"
)


def _list_based(flags="", **options):
    session = Session(**options)
    session.register_relation(ListRelation("e", 2))
    session.consult_string("e(1, 2).\n" + _TC.format(flags=flags))
    return session


def _grow(session):
    for step in range(2, 6):
        session.insert("e", step, step + 1)
        assert sorted(session.query("p(1, Y)").tuples()) == [
            (1, y) for y in range(2, step + 2)
        ]


def test_a_list_relation_base_is_read_by_watermark():
    """A ListRelation numbers its insertions, so a base of that kind is no
    obstruction: push, memo repair and live views catch up with it."""
    session = _list_based(memo=True)
    verdicts = session.modules.instance_for("m", "p", "bf").capabilities
    assert all(getattr(verdicts, consumer) is None for consumer in CONSUMERS)
    changes = []
    session.subscribe("p(1, Y)", changes.extend)
    _grow(session)
    assert sorted(tup[1].value for sign, tup in changes if sign > 0) == [
        3, 4, 5, 6,
    ]
    assert session.live.snapshot()["rebuilds"] == 0
    assert session.memo.snapshot()["evictions"] == 0


def test_save_module_resumes_over_a_list_relation_base():
    session = _list_based("@save_module.\n", compiled=None)
    instance = session.modules.instance_for("m", "p", "bf")
    _grow(session)
    assert session.modules.instance_for("m", "p", "bf") is instance
