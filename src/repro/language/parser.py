"""Recursive-descent parser for the CORAL declarative language.

Produces the :mod:`repro.language.ast` structures.  Variable scoping is per
clause: every occurrence of the same name inside one rule (or one annotation)
denotes the same :class:`Var`; ``_`` is always fresh.

Body literals may be ordinary atoms, negated atoms (``not p(X)``), or builtin
comparisons/assignments whose operands are infix arithmetic expressions —
``C1 = C + EC`` from the paper's Figure 3 parses to the builtin literal
``=(C1, +(C, EC))``, evaluated by :mod:`repro.builtins`.  A ``-`` directly
before a number is part of the constant (``p(-1)``); before anything else it
means ``0 - ...``.

The parser reads the scanner's ``(kind, text, start)`` tuples by index; the
list ends with spare EOF tokens, so looking ahead never runs off its end.
An argument that is a lone variable or constant followed by ``,`` or ``)``
is built on the spot, and each distinct constant text is built once per
source.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from ..errors import ParseError
from ..terms import Arg, Atom, Double, Functor, Int, NIL, Str, Var, cons
from .ast import (
    AGGREGATE_FUNCTIONS,
    AggregateSelection,
    Aggregation,
    Command,
    ExportDecl,
    FlagAnnotation,
    IndexAnnotation,
    Literal,
    MODULE_FLAGS,
    ModuleDecl,
    Program,
    Query,
    Rule,
)
from .lexer import (
    END, EOF, FLOAT, IDENT, INTEGER, PUNCT, STRING, VARIABLE, RawToken,
    position, scan, unquote,
)

#: builtin comparison / binding operators usable infix in rule bodies
COMPARISON_OPS = ("<", ">", "<=", ">=", "=<", "==", "!=", "\\=", "=")

#: infix arithmetic, by precedence level (low to high)
_ADDITIVE = ("+", "-")
_MULTIPLICATIVE = ("*", "/")

_AGGREGATES = frozenset(AGGREGATE_FUNCTIONS)
#: what may follow a lone primary argument
_ARGUMENT_ENDS = frozenset((",", ")"))
#: how each constant kind is built from its token text
_CONSTANTS = {
    INTEGER: lambda text: Int(int(text)),
    FLOAT: lambda text: Double(float(text)),
    STRING: lambda text: Str(unquote(text)),
    IDENT: Atom,
}

#: a clause's variables by name
Scope = Dict[str, Var]


def _variable(scope: Scope, name: str) -> Var:
    if name == "_":
        return Var("_")
    var = scope.get(name)
    if var is None:
        var = scope[name] = Var(name)
    return var


def _shown(token: RawToken) -> str:
    """A token's text as error messages quote it (a string's value)."""
    return unquote(token[1]) if token[0] == STRING else token[1]


class Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = scan(source)
        self.tokens += self.tokens[-1:] * 2
        self.position = 0
        #: constant text -> the term, shared by every occurrence
        self.constants: Dict[str, Arg] = {}

    # -- token plumbing ------------------------------------------------------

    def _error(self, message: str) -> ParseError:
        """An error at the next token."""
        start = self.tokens[self.position][2]
        return ParseError(message, *position(self.source, start))

    def _expect(self, kind: str, text: Optional[str] = None) -> str:
        """Consume a token of ``kind`` (and ``text``); returns its text."""
        token = self.tokens[self.position]
        if token[0] != kind or (text is not None and token[1] != text):
            wanted = text if text is not None else kind
            raise self._error(f"expected {wanted!r}, found {_shown(token)!r}")
        self.position += 1
        return token[1]

    def _at(self, text: str) -> bool:
        """Is ``text`` next?  (Texts tell the kinds apart: a string's text
        keeps its quotes, and EOF's is empty.)"""
        return self.tokens[self.position][1] == text

    def _skip(self, text: str) -> bool:
        """Consume ``text`` if it is next."""
        if self.tokens[self.position][1] == text:
            self.position += 1
            return True
        return False

    # -- program structure ---------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        tokens = self.tokens
        while True:
            kind, text, _ = tokens[self.position]
            if kind == EOF:
                return program
            if text == "module":
                program.modules.append(self._module())
            elif text == "@":
                self._top_level_annotation(program)
            elif text == "?-":
                program.queries.append(self._query())
            else:
                item = self._clause_or_query()
                if isinstance(item, Query):
                    program.queries.append(item)
                else:
                    if item.body:
                        raise self._error(
                            "rules must appear inside a module (facts and "
                            "queries are allowed at top level)"
                        )
                    program.facts.append(item)

    def parse_query(self) -> Query:
        """One query: ``?-`` prefix, ``?`` suffix and full stop optional."""
        self._skip("?-")
        literal = self._literal({})
        self._skip("?")
        if not self._at(""):
            self._expect(END)
            if not self._at(""):
                raise self._error("expected exactly one query")
        return Query(literal)

    def _module(self) -> ModuleDecl:
        self._expect(IDENT, "module")
        name = self._expect(IDENT)
        self._expect(END)
        module = ModuleDecl(name)
        while not self._at("end_module"):
            if self._at(""):
                raise self._error(f"module {name} is missing end_module")
            if self._at("export"):
                module.exports.append(self._export())
            elif self._at("@"):
                self._module_annotation(module)
            else:
                rule = self._clause_or_query()
                if isinstance(rule, Query):
                    raise self._error("queries are not allowed inside modules")
                module.rules.append(rule)
        self._expect(IDENT, "end_module")
        self._expect(END)
        return module

    def _export(self) -> ExportDecl:
        self._expect(IDENT, "export")
        pred = self._expect(IDENT)
        self._expect(PUNCT, "(")
        forms: List[str] = []
        if self._at(")"):
            forms.append("")  # a zero-arity predicate: the empty query form
        else:
            while True:
                form = self._expect(IDENT)
                if any(ch not in "bf" for ch in form):
                    raise self._error(
                        f"query form {form!r} must be a string of 'b' and 'f'"
                    )
                forms.append(form)
                if not self._skip(","):
                    break
        self._expect(PUNCT, ")")
        self._expect(END)
        arities = {len(form) for form in forms}
        if len(arities) != 1:
            raise self._error(f"query forms for {pred} have differing lengths")
        return ExportDecl(pred, arities.pop(), tuple(forms))

    def _query(self) -> Query:
        self._expect(PUNCT, "?-")
        literal = self._literal({})
        self._expect(END)
        return Query(literal)

    # -- annotations -----------------------------------------------------------

    def _module_annotation(self, module: ModuleDecl) -> None:
        self._expect(PUNCT, "@")
        name = self._expect(IDENT)
        if name == "aggregate_selection":
            module.aggregate_selections.append(self._aggregate_selection())
        elif name == "make_index":
            module.index_annotations.append(self._make_index())
        elif name in MODULE_FLAGS:
            argument = None
            if self.tokens[self.position][0] == IDENT:
                argument = self._expect(IDENT)
            elif self._skip("("):
                # parenthesized flag argument: @compiled(push).
                argument = self._expect(IDENT)
                self._expect(PUNCT, ")")
            self._expect(END)
            module.flags.append(FlagAnnotation(name, argument))
        else:
            raise self._error(f"unknown annotation @{name}")

    def _top_level_annotation(self, program: Program) -> None:
        self._expect(PUNCT, "@")
        name = self._expect(IDENT)
        if name == "make_index":
            program.index_annotations.append(self._make_index())
            return
        arguments: List[str] = []
        while not self._at("."):
            token = self.tokens[self.position]
            if token[0] not in (IDENT, VARIABLE, STRING, INTEGER, FLOAT):
                raise self._error(f"unexpected token in @{name} command")
            arguments.append(_shown(token))
            self.position += 1
        self._expect(END)
        program.commands.append(Command(name, tuple(arguments)))

    def _aggregate_selection(self) -> AggregateSelection:
        """``@aggregate_selection p(X, Y, P, C) (X, Y) min(C).``"""
        scope: Scope = {}
        pred = self._expect(IDENT)
        pattern = self._arguments(scope, self._term)
        self._expect(PUNCT, "(")
        group_vars: List[Var] = []
        if not self._at(")"):
            while True:
                group_vars.append(_variable(scope, self._expect(VARIABLE)))
                if not self._skip(","):
                    break
        self._expect(PUNCT, ")")
        function = self._expect(IDENT)
        if function not in _AGGREGATES:
            raise self._error(f"unknown aggregate function {function!r}")
        target: Optional[Arg] = None
        if self._skip("("):
            if not self._at(")"):
                target = self._term(scope)
            self._expect(PUNCT, ")")
        self._expect(END)
        return AggregateSelection(
            pred, tuple(pattern), tuple(group_vars), function, target
        )

    def _make_index(self) -> IndexAnnotation:
        """``@make_index emp(Name, addr(Street, City))(Name, City).``"""
        scope: Scope = {}
        pred = self._expect(IDENT)
        pattern = self._arguments(scope, self._term)
        keys = self._arguments(scope, self._term)
        self._expect(END)
        return IndexAnnotation(pred, tuple(pattern), tuple(keys))

    # -- clauses -----------------------------------------------------------------

    def _clause_or_query(self):
        scope: Scope = {}
        pred = self._expect(IDENT)
        args: List[Arg] = []
        aggregates: Dict[int, Aggregation] = {}
        tokens = self.tokens
        if tokens[self.position][1] == "(":
            self.position += 1
            # commas between head arguments are optional
            while tokens[self.position][1] != ")":
                at = self.position
                if (
                    tokens[at][1] in _AGGREGATES
                    and tokens[at + 1][1] == "("
                    and tokens[at + 2][1] == "<"
                ):
                    aggregates[len(args)] = self._aggregation(scope)
                    args.append(Var(f"_Agg{len(args)}"))
                else:
                    args.append(self._argument(scope, self._term))
                if tokens[self.position][1] == ",":
                    self.position += 1
            self.position += 1
        head = Literal(pred, tuple(args))
        if self._skip("."):
            if aggregates:
                raise self._error("a fact cannot contain aggregation")
            return Rule(head)
        if self._skip("?"):
            if aggregates:
                raise self._error("queries cannot contain aggregation")
            return Query(head)
        body: List[Literal] = []
        if self._skip(":-"):
            body.append(self._literal(scope))
            while self._skip(","):
                body.append(self._literal(scope))
        self._expect(END)
        return Rule(head, tuple(body), tuple(sorted(aggregates.items())))

    def _aggregation(self, scope: Scope) -> Aggregation:
        """``min(<C>)`` in a head argument position."""
        function = self.tokens[self.position][1]
        self.position += 3  # function name, (, <
        expr = self._term(scope)
        self._expect(PUNCT, ">")
        self._expect(PUNCT, ")")
        return Aggregation(function, expr)

    # -- body literals -------------------------------------------------------------

    def _literal(self, scope: Scope) -> Literal:
        if self._skip("not"):
            inner = self._literal(scope)
            if inner.negated:
                raise self._error("double negation is not supported")
            if inner.pred in COMPARISON_OPS:
                raise self._error("negate the comparison by inverting it instead")
            return Literal(inner.pred, inner.args, negated=True)
        left = self._arith_expr(scope)
        token = self.tokens[self.position]
        if token[0] == PUNCT and token[1] in COMPARISON_OPS:
            self.position += 1
            op = token[1]
            right = self._arith_expr(scope)
            if op == "=<":  # Prolog spelling of <=
                op = "<="
            if op == "\\=":
                op = "!="
            return Literal(op, (left, right))
        # a plain atom: the parsed expression must be a predicate application
        if isinstance(left, Functor):
            return Literal(left.name, left.args)
        if isinstance(left, Atom):
            return Literal(left.name, ())
        raise self._error(f"expected a literal, found term {left}")

    def _arith_expr(self, scope: Scope) -> Arg:
        left = self._arith_term(scope)
        tokens = self.tokens
        while tokens[self.position][1] in _ADDITIVE:
            op = tokens[self.position][1]
            self.position += 1
            left = Functor(op, (left, self._arith_term(scope)))
        return left

    def _arith_term(self, scope: Scope) -> Arg:
        left = self._arith_factor(scope)
        tokens = self.tokens
        while tokens[self.position][1] in _MULTIPLICATIVE:
            op = tokens[self.position][1]
            self.position += 1
            left = Functor(op, (left, self._arith_factor(scope)))
        return left

    def _arith_factor(self, scope: Scope) -> Arg:
        text = self.tokens[self.position][1]
        if text == "-":
            return self._minus(scope, self._arith_factor)
        if text == "(":
            self.position += 1
            inner = self._arith_expr(scope)
            self._expect(PUNCT, ")")
            return inner
        return self._term(scope)

    def _minus(self, scope: Scope, operand) -> Arg:
        """``-`` before a number token is a negative constant; before
        anything else it is ``0 - operand``."""
        kind, text, _ = self.tokens[self.position + 1]
        if kind == INTEGER or kind == FLOAT:
            self.position += 2
            return _CONSTANTS[kind]("-" + text)
        self.position += 1
        return Functor("-", (Int(0), operand(scope)))

    # -- terms ------------------------------------------------------------------------

    def _argument(self, scope: Scope, parse) -> Arg:
        """One argument: a lone variable or constant before ``,`` or ``)``
        is built here, anything else by ``parse``."""
        tokens = self.tokens
        at = self.position
        kind, text, _ = tokens[at]
        if tokens[at + 1][1] in _ARGUMENT_ENDS:
            if kind == VARIABLE:
                self.position = at + 1
                return _variable(scope, text)
            term = self.constants.get(text)
            if term is None and kind in _CONSTANTS:
                term = self.constants[text] = _CONSTANTS[kind](text)
            if term is not None:
                self.position = at + 1
                return term
        return parse(scope)

    def _term(self, scope: Scope) -> Arg:
        token = self.tokens[self.position]
        kind, text, _ = token
        if kind == VARIABLE:
            self.position += 1
            return _variable(scope, text)
        if kind == IDENT:
            self.position += 1
            if self.tokens[self.position][1] == "(":
                args = self._arguments(scope, self._arith_expr)
                return Functor(text, tuple(args))
            return Atom(text)
        if kind in _CONSTANTS:
            self.position += 1
            return _CONSTANTS[kind](text)
        if text == "[":
            return self._list(scope)
        if text == "-":
            return self._minus(scope, self._term)
        raise self._error(f"expected a term, found {_shown(token)!r}")

    def _arguments(self, scope: Scope, parse) -> List[Arg]:
        """``(arg, ...)``, each argument read by :meth:`_argument`."""
        self._expect(PUNCT, "(")
        args: List[Arg] = []
        if not self._at(")"):
            while True:
                args.append(self._argument(scope, parse))
                if not self._skip(","):
                    break
        self._expect(PUNCT, ")")
        return args

    def _list(self, scope: Scope) -> Arg:
        self._expect(PUNCT, "[")
        if self._skip("]"):
            return NIL
        elements: List[Arg] = [self._term(scope)]
        while self._skip(","):
            elements.append(self._term(scope))
        tail: Arg = NIL
        if self._skip("|"):
            tail = self._term(scope)
        self._expect(PUNCT, "]")
        for element in reversed(elements):
            tail = cons(element, tail)
        return tail


def _parse(source: str, method):
    try:
        return method(Parser(source))
    except RecursionError:
        # the parser is recursive-descent: nesting beyond the interpreter's
        # stack is a property of the input, so refuse it as one
        raise ParseError("term nested too deeply") from None


def parse_program(source: str) -> Program:
    """Parse a whole source text (a consulted file or typed-in block)."""
    return _parse(source, Parser.parse_program)


def parse_query(source: str) -> Query:
    """Parse a single query, with or without the ``?-`` prefix, the ``?``
    suffix and the closing full stop."""
    return _parse(source, Parser.parse_query)


#: how many distinct query texts :func:`cached_query` keeps parsed
QUERY_CACHE_SIZE = 512
#: the longest text it keeps: a longer one is parsed every time, so what the
#: cache holds stays small whoever chooses the texts (a server's clients)
QUERY_CACHE_TEXT = 256

_queries: Dict[str, Query] = {}
_queries_lock = threading.Lock()


def cached_query(
    source: str, parse: Callable[[str], Query] = parse_query
) -> Query:
    """``parse(source)``, once per text while it is among the last
    :data:`QUERY_CACHE_SIZE` texts kept (the oldest goes first); a text
    longer than :data:`QUERY_CACHE_TEXT` or one that fails to parse is
    never kept.  Sharing one parse is safe because no read changes it: a
    :class:`Literal` and its argument tuple are frozen, a :class:`Var`
    refuses attribute writes, and every binding lives in a
    :class:`~repro.terms.BindEnv` keyed by the variable's id, one per
    read."""
    query = _queries.get(source)
    if query is None:
        query = parse(source)
        if len(source) <= QUERY_CACHE_TEXT:
            with _queries_lock:
                if len(_queries) >= QUERY_CACHE_SIZE:
                    del _queries[next(iter(_queries))]
                _queries[source] = query
    return query


def parse_module(source: str) -> ModuleDecl:
    """Parse a source text expected to contain exactly one module."""
    program = parse_program(source)
    if len(program.modules) != 1:
        raise ParseError(
            f"expected exactly one module, found {len(program.modules)}"
        )
    return program.modules[0]
