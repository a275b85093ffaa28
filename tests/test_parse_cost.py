"""What a consult costs per fact, counted in interpreter calls rather than
timed: the front end is one regex scan into plain tuples plus a parser that
builds a lone constant argument on the spot (docs/INTERNALS.md, "The front
end").  A count moves only when the code does, so it is a gate a shared
machine cannot make flaky."""

import cProfile
import pstats
import random

import pytest

from repro.errors import ParseError
from repro.language import parse_program, parse_query

FACTS = 4016

#: cProfile calls per fact parsing :func:`_consult_source`: 20.8–21.8 on
#: Python 3.10–3.13, so the pin leaves room for one interpreter's extra call
#: per fact, not for a token object or a descent per argument
CALLS_PER_FACT = 24


def _consult_source():
    """Shaped like the wire benchmark's bulk load: an index annotation, then
    4,016 ``edge(a, b).`` lines over 4,500 nodes."""
    rng = random.Random(1)
    edges = "".join(
        f"edge({rng.randrange(4500)}, {rng.randrange(4500)}).\n"
        for _ in range(FACTS)
    )
    return "@make_index edge(X, Y) (X).\n" + edges


def test_calls_per_fact():
    source = _consult_source()
    parse_program(source)  # warm: imports, regex caches
    profile = cProfile.Profile()
    profile.enable()
    program = parse_program(source)
    profile.disable()
    assert len(program.facts) == FACTS
    calls = pstats.Stats(profile).total_calls / FACTS
    assert calls <= CALLS_PER_FACT, f"{calls:.1f} calls per fact"


DEEP = 5000


@pytest.mark.parametrize(
    "source",
    [
        "p(" + "f(" * DEEP + "1" + ")" * DEEP + ").",
        "p(" + "[" * DEEP + "]" * DEEP + ").",
        "module m. p(X) :- X = " + "(" * DEEP + "1" + ")" * DEEP
        + ". end_module.",
        "module m. p(X) :- X = " + "-" * DEEP + "X. end_module.",
    ],
    ids=["functor", "list", "parentheses", "minus"],
)
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(ParseError, match="term nested too deeply"):
        parse_program(source)


def test_deep_query_is_a_parse_error():
    with pytest.raises(ParseError, match="term nested too deeply"):
        parse_query("p(" + "f(" * DEEP + "1" + ")" * DEEP + ")")
