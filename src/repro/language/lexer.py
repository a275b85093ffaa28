"""Tokenizer for the CORAL declarative language.

The surface syntax follows the paper's examples (Figure 3, Section 5.5):
Prolog-style clauses with ``:-``, module brackets ``module m.`` ...
``end_module.``, ``export`` declarations with adornment strings, ``@``
annotations, functor terms, lists ``[H|T]``, grouped aggregation arguments
``min(<C>)``, arithmetic and comparison operators, and ``not`` for negation.

The only lexical subtlety inherited from Prolog is the full stop: ``.`` ends
a clause unless a digit follows it, when it is a decimal point.

The scanner is one compiled regex, :data:`_SCAN`: whitespace and comments
in front of a token, then one named alternative per token kind.  A match is
kept as a plain ``(kind, text, start)`` tuple — a string's text still
quoted and escaped (:func:`unquote` decodes it), so no two kinds share a
text.  Lines and columns are not tracked while scanning; :func:`position`
computes them from ``start`` when an error is reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ParseError

#: token kinds
IDENT = "ident"  # lowercase-led identifier: predicate, functor, atom
VARIABLE = "variable"  # uppercase- or underscore-led identifier
INTEGER = "integer"
FLOAT = "float"
STRING = "string"
PUNCT = "punct"  # operators and punctuation
END = "end"  # clause-terminating full stop
EOF = "eof"

#: the alternatives are tried in order; the last four are not tokens:
#: ``word`` is an identifier led by a non-ASCII character (its kind is
#: settled by ``str.isupper``/``isalpha``, which a regex cannot test), the
#: three error kinds take the rest of the source so that a scan stops at
#: its first error
_SCAN = re.compile(
    r"""
    [ \t\r\n]*(?:(?:%[^\n]*|/\*.*?\*/)[ \t\r\n]*)*
    (?:(?P<punct>[(),]|:-|\?-|<=|>=|=<|==|!=|\\=|/(?!\*)|[<>=\[\]{}|@+\-*?])
      |(?P<integer>\d+(?!\d|\.\d|[eE][+-]?\d))
      |(?P<float>\d*\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
      |(?P<ident>[a-z]\w*)
      |(?P<variable>[A-Z_]\w*)
      |(?P<string>"(?:[^"\\\n]|\\.)*")
      |(?P<end>\.)
      |(?P<eof>\Z)
      |(?P<word>[^\W\d]\w*)
      |(?P<open_comment>/\*.*)
      |(?P<open_string>".*)
      |(?P<stray>.+))
    """,
    re.VERBOSE | re.DOTALL,
)
#: how far an unterminated string literal gets: to its newline or the end
_OPEN_STRING = re.compile(r'"(?:[^"\\\n]|\\.?)*', re.DOTALL)
_ERRORS = frozenset(("open_comment", "open_string", "stray"))
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}

RawToken = Tuple[str, str, int]


def scan(source: str) -> List[RawToken]:
    """Scan ``source`` into ``(kind, text, start)`` tuples ending with the
    EOF token; raises :class:`ParseError` at the first lexical error."""
    tokens = [
        (match.lastgroup, match[match.lastindex], match.start(match.lastindex))
        for match in _SCAN.finditer(source)
    ]
    if not source.isascii():
        tokens = [_settle_word(source, token) for token in tokens]
    # the end matches twice after trailing trivia (once with the trivia,
    # once empty); an error token takes the rest, so only EOF follows it
    if len(tokens) == 1:
        return tokens
    kind, text, start = tokens[-2]
    if kind == EOF:
        del tokens[-1]
    if kind not in _ERRORS:
        return tokens
    if kind == "open_comment":
        start, message = len(source), "unterminated block comment"
    elif kind == "open_string":
        start = _OPEN_STRING.match(source, start).end()
        message = "unterminated string literal"
    else:
        message = f"unexpected character {text[0]!r}"
    raise ParseError(message, *position(source, start))


def _settle_word(source: str, token: RawToken) -> RawToken:
    kind, text, start = token
    if kind != "word":
        return token
    if not text[0].isalpha():  # a digit-like letter such as '²'
        raise ParseError(
            f"unexpected character {text[0]!r}", *position(source, start)
        )
    return (VARIABLE if text[0].isupper() else IDENT), text, start


def position(source: str, start: int) -> Tuple[int, int]:
    """(line, column) of offset ``start``, both counted from 1."""
    return source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start)


def unquote(text: str) -> str:
    """The value of a string token: quotes stripped, escapes decoded."""
    body = text[1:-1]
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), body)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def tokenize(source: str) -> List[Token]:
    """Scan ``source`` into tokens (including the trailing EOF token)."""
    tokens: List[Token] = []
    line, line_start, seen = 1, 0, 0
    for kind, text, start in scan(source):
        newlines = source.count("\n", seen, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", seen, start) + 1
        seen = start
        if kind == STRING:
            text = unquote(text)
        tokens.append(Token(kind, text, line, start - line_start + 1))
    return tokens
