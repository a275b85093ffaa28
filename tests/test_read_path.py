"""The read path of a repeated query: a short query text parsed once
(``repro.language.cached_query``), and a call skeleton's context rows kept
as columns between its pushed SCCs (``compilemod.push.HandOff``) instead
of being flushed into the context relation.

Right answers do not show either saving — parse counts and relation sizes
do — so every test here also compares answers with a cold
``Session(compiled=None)`` evaluating the module under ``@no_rewriting.``.
"""

import pytest

from repro import Session
from repro.client import RemoteSession
from repro.compilemod.push import HandOff
from repro.errors import ParseError
from repro.api import session as session_module
from repro.language import parser
from repro.language import QUERY_CACHE_SIZE, QUERY_CACHE_TEXT, cached_query
from repro.server import core as server_module
from repro.relations import Tuple
from repro.server import CoralServer
from repro.terms import Int

TC = """
module tc.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

#: two branches of a DAG that share a tail: 0 -> 1..5 -> 20.., 10 -> 11..13
EDGES = (
    "".join(f"edge({i}, {i + 1}).\n" for i in range(5))
    + "edge(5, 20). edge(20, 21). edge(10, 11). edge(11, 12). edge(12, 13).\n"
    + "edge(13, 20).\n"
)


def _session(program, **kwargs):
    session = Session(**kwargs)
    session.consult_string(program)
    return session


def _rows(session, query):
    return sorted(session.query(query).tuples(), key=str)


def _cold(program, query):
    """The answers of a cold interpreter that does not rewrite the module."""
    oracle = program.replace("module tc.", "module tc.\n@no_rewriting.")
    return _rows(_session(oracle, compiled=None), query)


@pytest.fixture
def parses(monkeypatch):
    """Every text the session and the server had parsed, starting from an
    empty cache: each passes its own ``parse_query`` to ``cached_query``,
    so a wrapper on it sees the parses that happen, and only those."""
    texts = []
    honest = parser.parse_query

    def counting(source):
        texts.append(source)
        return honest(source)

    parser._queries.clear()
    for module in (session_module, server_module):
        monkeypatch.setattr(module, "parse_query", counting)
    yield texts
    parser._queries.clear()


# -- parse once -------------------------------------------------------------------


def test_two_open_cursors_over_one_text_interleave(parses):
    session = _session(EDGES + TC)
    first, second = session.query("path(0, Y)"), session.query("path(0, Y)")
    pulled = {id(first): [], id(second): []}
    while True:
        answers = [(cursor, cursor.get_next()) for cursor in (first, second)]
        if all(answer is None for _, answer in answers):
            break
        for cursor, answer in answers:
            if answer is not None:
                pulled[id(cursor)].append(answer.tuple)
    expected = _cold(EDGES + TC, "path(0, Y)")
    for rows in pulled.values():
        assert sorted(((tup.args[0].value, tup.args[1].value) for tup in rows),
                      key=str) == expected
    assert parses == ["path(0, Y)"]
    assert cached_query("path(0, Y)") is cached_query("path(0, Y)")


def test_a_text_evicted_past_the_bound_is_parsed_again(parses):
    session = _session(EDGES + TC)
    expected = _cold(EDGES + TC, "path(10, Y)")
    assert _rows(session, "path(10, Y)") == expected
    for key in range(QUERY_CACHE_SIZE):
        session.query(f"path({key + 100}, Y)")
    assert len(parser._queries) == QUERY_CACHE_SIZE
    assert parses.count("path(10, Y)") == 1
    assert _rows(session, "path(10, Y)") == expected
    assert parses.count("path(10, Y)") == 2
    assert _rows(session, "path(10, Y)") == expected
    assert parses.count("path(10, Y)") == 2


def test_a_text_that_does_not_parse_is_not_kept(parses):
    session = _session(EDGES + TC)
    for _ in range(2):
        with pytest.raises(ParseError):
            session.query("path(0, ")
    assert parses == ["path(0, ", "path(0, "]
    assert parser._queries == {}
    assert _rows(session, "path(0, Y)") == _cold(EDGES + TC, "path(0, Y)")


def test_the_server_query_path_parses_a_text_once(parses):
    with CoralServer(_session(EDGES + TC), port=0) as server:
        with RemoteSession(*server.address) as db:
            for _ in range(3):
                for key in (0, 10):
                    rows = sorted(db.query(f"path({key}, Y)").tuples(), key=str)
                    assert rows == _cold(EDGES + TC, f"path({key}, Y)")
    assert sorted(parses) == ["path(0, Y)", "path(10, Y)"]


def test_the_server_keeps_no_long_text(parses):
    """A client chooses the texts a server parses: one longer than
    ``QUERY_CACHE_TEXT`` is answered, parsed each time and never kept."""
    text = "path(0, " + " " * QUERY_CACHE_TEXT + "Y)"
    expected = _cold(EDGES + TC, "path(0, Y)")
    with CoralServer(_session(EDGES + TC), port=0) as server:
        with RemoteSession(*server.address) as db:
            for _ in range(2):
                assert sorted(db.query(text).tuples(), key=str) == expected
    assert parses.count(text) == 2
    assert text not in parser._queries


# -- context rows stay columns -------------------------------------------------------


def _context(session):
    """The call skeleton's context relation (``ctx_path``)."""
    (skeleton,) = session.modules._idle.values()
    return skeleton.scope.local[("ctx_path", 1)]


def test_context_rows_stay_out_of_their_relation():
    session = _session(EDGES + TC)
    for _ in range(3):
        for key in (0, 10):
            assert _rows(session, f"path({key}, Y)") == \
                _cold(EDGES + TC, f"path({key}, Y)")
            assert len(_context(session)) == 1  # the call's seed alone


def test_an_interpreted_reader_sees_every_context_row():
    """The answer rule's negation runs interpreted and reads ``ctx_path``
    through the relation: the skeleton keeps no rows as columns."""
    program = "blocked(3). blocked(21).\n" + EDGES + TC.replace(
        "path(X, Y) :- edge(X, Y).", "path(X, Y) :- edge(X, Y), not blocked(Y)."
    )
    session = _session(program)
    for _ in range(3):
        for key in (0, 10):
            assert _rows(session, f"path({key}, Y)") == \
                _cold(program, f"path({key}, Y)")
    assert len(_context(session)) > 1
    assert not session.modules._idle[("tc", "path", "bf")]._handoff.keep


def test_a_run_that_falls_back_gets_the_held_rows(monkeypatch):
    """``ctx_path``'s SCC runs pushed and keeps its rows; the answer SCC
    meets a non-ground ``ok`` fact, falls back, and its interpreted rule
    reads ``ctx_path`` whole."""
    filled = []
    honest = HandOff.fill

    def fill(self, scope):
        filled.append(sorted(self.held))
        honest(self, scope)

    monkeypatch.setattr(HandOff, "fill", fill)
    program = "ok(W).\n" + EDGES + TC.replace(
        "path(X, Y) :- edge(X, Y).", "path(X, Y) :- edge(X, Y), ok(Y)."
    )
    session = _session(program)
    for _ in range(3):
        for key in (0, 10):
            assert _rows(session, f"path({key}, Y)") == \
                _cold(program, f"path({key}, Y)")
    assert filled == [[("ctx_path", 1)]] * 6
    assert len(_context(session)) > 1


def test_a_delete_that_bypasses_the_fan_out_between_checkouts():
    session = _session(EDGES + TC)
    cold = _session(EDGES + TC.replace("module tc.", "module tc.\n@no_rewriting."),
                    compiled=None)
    assert _rows(session, "path(0, Y)") == _rows(cold, "path(0, Y)")
    for db in (session, cold):
        # straight on the relation: neither push nor memo hears of it
        assert db.relation("edge", 2).delete(Tuple((Int(5), Int(20))))
    for key in (0, 10, 0):
        assert _rows(session, f"path({key}, Y)") == _rows(cold, f"path({key}, Y)")
    assert _rows(session, "path(0, Y)") == [(0, y) for y in range(1, 6)]
