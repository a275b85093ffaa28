"""Tokenizer for the CORAL declarative language.

The surface syntax follows the paper's examples (Figure 3, Section 5.5):
Prolog-style clauses with ``:-``, module brackets ``module m.`` ...
``end_module.``, ``export`` declarations with adornment strings, ``@``
annotations, functor terms, lists ``[H|T]``, grouped aggregation arguments
``min(<C>)``, arithmetic and comparison operators, and ``not`` for negation.

The only lexical subtlety inherited from Prolog is the full stop: ``.`` ends
a clause when followed by whitespace or end of input, and is a decimal point
inside a number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

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

#: multi-character operators, longest first so the scanner is greedy
_OPERATORS = [
    ":-",
    "?-",
    "<=",
    ">=",
    "=<",
    "==",
    "!=",
    "\\=",
    "<",
    ">",
    "=",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    "|",
    "@",
    "+",
    "-",
    "*",
    "/",
    "?",
]


#: whitespace and comments; a block comment left open does not match, so
#: the scan stops in front of its ``/*``
_TRIVIA = re.compile(r"(?:[ \t\r\n]+|%[^\n]*|/\*.*?\*/)*", re.DOTALL)
_WORD = re.compile(r"\w+")
#: digits, then (group 1) whatever makes the number a float
_NUMBER = re.compile(r"\d*((?:\.\d+)?(?:[eE][+-]?\d+)?)")
_OPERATOR = re.compile("|".join(re.escape(op) for op in _OPERATORS))


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


class Lexer:
    """A one-pass scanner producing a list of tokens."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.position = 0
        self.line = 1
        #: where the current line begins: column = position - line_start + 1
        self.line_start = 0

    def _error(self, message: str) -> ParseError:
        return ParseError(
            message, self.line, self.position - self.line_start + 1
        )

    def _move_to(self, end: int) -> None:
        """Consume up to ``end``, counting the lines gone by (only trivia
        and string escapes can span one)."""
        newlines = self.source.count("\n", self.position, end)
        if newlines:
            self.line += newlines
            self.line_start = self.source.rfind("\n", self.position, end) + 1
        self.position = end

    def _peek(self) -> str:
        return self.source[self.position : self.position + 1]

    def _advance(self) -> str:
        ch = self._peek()
        self._move_to(self.position + len(ch))
        return ch

    def tokens(self) -> List[Token]:
        source = self.source
        result: List[Token] = []
        while True:
            end = _TRIVIA.match(source, self.position).end()
            if end != self.position:
                self._move_to(end)
            if source.startswith("/*", end):
                self._move_to(len(source))
                raise self._error("unterminated block comment")
            position, line = end, self.line
            column = position - self.line_start + 1
            ch = source[position : position + 1]
            if not ch:
                result.append(Token(EOF, "", line, column))
                return result
            if ch.isalpha() or ch == "_":
                end = _WORD.match(source, position).end()
                kind = VARIABLE if ch.isupper() or ch == "_" else IDENT
            elif ch.isdecimal() or (
                ch == "." and source[position + 1 : position + 2].isdecimal()
            ):
                match = _NUMBER.match(source, position)
                end = match.end()
                kind = FLOAT if match.group(1) else INTEGER
            elif ch == '"':
                result.append(self._string(line, column))
                continue
            elif ch == ".":
                end = position + 1
                kind = END
            else:
                match = _OPERATOR.match(source, position)
                if match is None:
                    raise self._error(f"unexpected character {ch!r}")
                end = match.end()
                kind = PUNCT
            self.position = end
            result.append(Token(kind, source[position:end], line, column))

    def _string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        parts: List[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise self._error("unterminated string literal")
            if ch == '"':
                self._advance()
                return Token(STRING, "".join(parts), line, column)
            if ch == "\\":
                self._advance()
                escape = self._advance()
                parts.append(
                    {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(escape, escape)
                )
            else:
                parts.append(self._advance())


def tokenize(source: str) -> List[Token]:
    """Scan ``source`` into tokens (including the trailing EOF token)."""
    return Lexer(source).tokens()
