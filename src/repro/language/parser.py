"""Recursive-descent parser for the CORAL declarative language.

Produces the :mod:`repro.language.ast` structures.  Variable scoping is per
clause: every occurrence of the same name inside one rule (or one annotation)
denotes the same :class:`Var`; ``_`` is always fresh.

Body literals may be ordinary atoms, negated atoms (``not p(X)``), or builtin
comparisons/assignments whose operands are infix arithmetic expressions —
``C1 = C + EC`` from the paper's Figure 3 parses to the builtin literal
``=(C1, +(C, EC))``, evaluated by :mod:`repro.builtins`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple as PyTuple

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
from .lexer import END, EOF, FLOAT, IDENT, INTEGER, PUNCT, STRING, Token, VARIABLE, tokenize

#: builtin comparison / binding operators usable infix in rule bodies
COMPARISON_OPS = ("<", ">", "<=", ">=", "=<", "==", "!=", "\\=", "=")

#: infix arithmetic, by precedence level (low to high)
_ADDITIVE = ("+", "-")
_MULTIPLICATIVE = ("*", "/")


class _ClauseScope:
    """Variable scope for one clause: name -> Var."""

    def __init__(self) -> None:
        self._vars: Dict[str, Var] = {}

    def var(self, name: str) -> Var:
        if name == "_":
            return Var("_")
        existing = self._vars.get(name)
        if existing is None:
            existing = Var(name)
            self._vars[name] = existing
        return existing


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.position = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != EOF:
            self.position += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self._peek()
        return ParseError(message, token.line, token.column)

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            raise self._error(f"expected {wanted!r}, found {token.text!r}")
        return self._advance()

    def _at(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        return token.kind == kind and (text is None or token.text == text)

    # -- program structure ---------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while not self._at(EOF):
            if self._at(IDENT, "module"):
                program.modules.append(self._module())
            elif self._at(PUNCT, "@"):
                self._top_level_annotation(program)
            elif self._at(PUNCT, "?-"):
                program.queries.append(self._query())
            else:
                item = self._clause_or_query()
                if isinstance(item, Query):
                    program.queries.append(item)
                else:
                    if not item.is_fact:
                        raise self._error(
                            "rules must appear inside a module (facts and "
                            "queries are allowed at top level)"
                        )
                    program.facts.append(item)
        return program

    def _module(self) -> ModuleDecl:
        self._expect(IDENT, "module")
        name = self._expect(IDENT).text
        self._expect(END)
        module = ModuleDecl(name)
        while not self._at(IDENT, "end_module"):
            if self._at(EOF):
                raise self._error(f"module {name} is missing end_module")
            if self._at(IDENT, "export"):
                module.exports.append(self._export())
            elif self._at(PUNCT, "@"):
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
        pred = self._expect(IDENT).text
        self._expect(PUNCT, "(")
        forms: List[str] = []
        if self._at(PUNCT, ")"):
            forms.append("")  # a zero-arity predicate: the empty query form
        else:
            while True:
                form = self._expect(IDENT).text
                if any(ch not in "bf" for ch in form):
                    raise self._error(
                        f"query form {form!r} must be a string of 'b' and 'f'"
                    )
                forms.append(form)
                if self._at(PUNCT, ","):
                    self._advance()
                    continue
                break
        self._expect(PUNCT, ")")
        self._expect(END)
        arities = {len(form) for form in forms}
        if len(arities) != 1:
            raise self._error(f"query forms for {pred} have differing lengths")
        return ExportDecl(pred, arities.pop(), tuple(forms))

    def _query(self) -> Query:
        self._expect(PUNCT, "?-")
        scope = _ClauseScope()
        literal = self._literal(scope)
        self._expect(END)
        return Query(literal)

    # -- annotations -----------------------------------------------------------

    def _module_annotation(self, module: ModuleDecl) -> None:
        self._expect(PUNCT, "@")
        name = self._expect(IDENT).text
        if name == "aggregate_selection":
            module.aggregate_selections.append(self._aggregate_selection())
        elif name == "make_index":
            module.index_annotations.append(self._make_index())
        elif name in MODULE_FLAGS:
            argument = None
            if self._at(IDENT):
                argument = self._advance().text
            elif self._at(PUNCT, "("):
                # parenthesized flag argument: @compiled(push).
                self._advance()
                argument = self._expect(IDENT).text
                self._expect(PUNCT, ")")
            self._expect(END)
            module.flags.append(FlagAnnotation(name, argument))
        else:
            raise self._error(f"unknown annotation @{name}")

    def _top_level_annotation(self, program: Program) -> None:
        self._expect(PUNCT, "@")
        name = self._expect(IDENT).text
        if name == "make_index":
            program.index_annotations.append(self._make_index())
            return
        arguments: List[str] = []
        while not self._at(END):
            token = self._peek()
            if token.kind in (IDENT, VARIABLE, STRING, INTEGER, FLOAT):
                arguments.append(self._advance().text)
            else:
                raise self._error(f"unexpected token in @{name} command")
        self._expect(END)
        program.commands.append(Command(name, tuple(arguments)))

    def _aggregate_selection(self) -> AggregateSelection:
        """``@aggregate_selection p(X, Y, P, C) (X, Y) min(C).``"""
        scope = _ClauseScope()
        pred = self._expect(IDENT).text
        pattern = self._term_list_in_parens(scope)
        self._expect(PUNCT, "(")
        group_vars: List[Var] = []
        if not self._at(PUNCT, ")"):
            while True:
                token = self._expect(VARIABLE)
                group_vars.append(scope.var(token.text))
                if self._at(PUNCT, ","):
                    self._advance()
                    continue
                break
        self._expect(PUNCT, ")")
        function = self._expect(IDENT).text
        if function not in AGGREGATE_FUNCTIONS:
            raise self._error(f"unknown aggregate function {function!r}")
        target: Optional[Arg] = None
        if self._at(PUNCT, "("):
            self._advance()
            if not self._at(PUNCT, ")"):
                target = self._term(scope)
            self._expect(PUNCT, ")")
        self._expect(END)
        return AggregateSelection(
            pred, tuple(pattern), tuple(group_vars), function, target
        )

    def _make_index(self) -> IndexAnnotation:
        """``@make_index emp(Name, addr(Street, City))(Name, City).``"""
        scope = _ClauseScope()
        pred = self._expect(IDENT).text
        pattern = self._term_list_in_parens(scope)
        keys = self._term_list_in_parens(scope)
        self._expect(END)
        return IndexAnnotation(pred, tuple(pattern), tuple(keys))

    def _term_list_in_parens(self, scope: _ClauseScope) -> List[Arg]:
        self._expect(PUNCT, "(")
        terms: List[Arg] = []
        if not self._at(PUNCT, ")"):
            while True:
                terms.append(self._term(scope))
                if self._at(PUNCT, ","):
                    self._advance()
                    continue
                break
        self._expect(PUNCT, ")")
        return terms

    # -- clauses -----------------------------------------------------------------

    def _clause_or_query(self):
        scope = _ClauseScope()
        head_pred, head_args, aggregates = self._head(scope)
        if self._at(PUNCT, "?"):
            self._advance()
            if aggregates:
                raise self._error("queries cannot contain aggregation")
            return Query(Literal(head_pred, tuple(head_args)))
        body: List[Literal] = []
        if self._at(PUNCT, ":-"):
            self._advance()
            while True:
                body.append(self._literal(scope))
                if self._at(PUNCT, ","):
                    self._advance()
                    continue
                break
        self._expect(END)
        if aggregates and not body:
            raise self._error("a fact cannot contain aggregation")
        return Rule(
            Literal(head_pred, tuple(head_args)),
            tuple(body),
            tuple(sorted(aggregates.items())),
        )

    def _head(self, scope: _ClauseScope):
        pred = self._expect(IDENT).text
        args: List[Arg] = []
        aggregates: Dict[int, Aggregation] = {}
        if self._at(PUNCT, "("):
            self._advance()
            position = 0
            while not self._at(PUNCT, ")"):
                aggregation = self._try_aggregation(scope)
                if aggregation is not None:
                    aggregates[position] = aggregation
                    args.append(Var(f"_Agg{position}"))
                else:
                    args.append(self._term(scope))
                position += 1
                if self._at(PUNCT, ","):
                    self._advance()
            self._expect(PUNCT, ")")
        return pred, args, aggregates

    def _try_aggregation(self, scope: _ClauseScope) -> Optional[Aggregation]:
        """``min(<C>)`` in a head argument position."""
        token = self._peek()
        if (
            token.kind == IDENT
            and token.text in AGGREGATE_FUNCTIONS
            and self._peek(1).kind == PUNCT
            and self._peek(1).text == "("
            and self._peek(2).kind == PUNCT
            and self._peek(2).text == "<"
        ):
            self._advance()  # function name
            self._advance()  # (
            self._advance()  # <
            expr = self._term(scope)
            self._expect(PUNCT, ">")
            self._expect(PUNCT, ")")
            return Aggregation(token.text, expr)
        return None

    # -- body literals -------------------------------------------------------------

    def _literal(self, scope: _ClauseScope) -> Literal:
        if self._at(IDENT, "not"):
            self._advance()
            inner = self._literal(scope)
            if inner.negated:
                raise self._error("double negation is not supported")
            if inner.pred in COMPARISON_OPS:
                raise self._error("negate the comparison by inverting it instead")
            return Literal(inner.pred, inner.args, negated=True)
        left = self._arith_expr(scope)
        token = self._peek()
        if token.kind == PUNCT and token.text in COMPARISON_OPS:
            op = self._advance().text
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

    def _arith_expr(self, scope: _ClauseScope) -> Arg:
        left = self._arith_term(scope)
        while self._at(PUNCT, "+") or self._at(PUNCT, "-"):
            op = self._advance().text
            right = self._arith_term(scope)
            left = Functor(op, (left, right))
        return left

    def _arith_term(self, scope: _ClauseScope) -> Arg:
        left = self._arith_factor(scope)
        while self._at(PUNCT, "*") or self._at(PUNCT, "/"):
            op = self._advance().text
            right = self._arith_factor(scope)
            left = Functor(op, (left, right))
        return left

    def _arith_factor(self, scope: _ClauseScope) -> Arg:
        if self._at(PUNCT, "-"):
            self._advance()
            return Functor("-", (Int(0), self._arith_factor(scope)))
        if self._at(PUNCT, "("):
            self._advance()
            inner = self._arith_expr(scope)
            self._expect(PUNCT, ")")
            return inner
        return self._term(scope)

    # -- terms ------------------------------------------------------------------------

    def _term(self, scope: _ClauseScope) -> Arg:
        token = self._peek()
        if token.kind == VARIABLE:
            self._advance()
            return scope.var(token.text)
        if token.kind == INTEGER:
            self._advance()
            return Int(int(token.text))
        if token.kind == FLOAT:
            self._advance()
            return Double(float(token.text))
        if token.kind == STRING:
            self._advance()
            return Str(token.text)
        if token.kind == IDENT:
            self._advance()
            if self._at(PUNCT, "("):
                args = self._term_args(scope)
                return Functor(token.text, tuple(args))
            return Atom(token.text)
        if token.kind == PUNCT and token.text == "[":
            return self._list(scope)
        if token.kind == PUNCT and token.text == "-":
            self._advance()
            inner = self._term(scope)
            if isinstance(inner, Int):
                return Int(-inner.value)
            if isinstance(inner, Double):
                return Double(-inner.value)
            return Functor("-", (Int(0), inner))
        raise self._error(f"expected a term, found {token.text!r}")

    def _term_args(self, scope: _ClauseScope) -> List[Arg]:
        self._expect(PUNCT, "(")
        args: List[Arg] = []
        if not self._at(PUNCT, ")"):
            while True:
                args.append(self._arith_expr(scope))
                if self._at(PUNCT, ","):
                    self._advance()
                    continue
                break
        self._expect(PUNCT, ")")
        return args

    def _list(self, scope: _ClauseScope) -> Arg:
        self._expect(PUNCT, "[")
        if self._at(PUNCT, "]"):
            self._advance()
            return NIL
        elements: List[Arg] = [self._term(scope)]
        while self._at(PUNCT, ","):
            self._advance()
            elements.append(self._term(scope))
        tail: Arg = NIL
        if self._at(PUNCT, "|"):
            self._advance()
            tail = self._term(scope)
        self._expect(PUNCT, "]")
        for element in reversed(elements):
            tail = cons(element, tail)
        return tail


def parse_program(source: str) -> Program:
    """Parse a whole source text (a consulted file or typed-in block)."""
    try:
        return Parser(source).parse_program()
    except RecursionError:
        # the parser is recursive-descent: nesting beyond the interpreter's
        # stack is a property of the input, so refuse it as one
        raise ParseError("term nested too deeply") from None


def parse_query(source: str) -> Query:
    """Parse a single query, with or without the ``?-`` prefix / ``?`` suffix."""
    text = source.strip()
    if not text.startswith("?-"):
        if text.endswith("?"):
            text = text[:-1]
        text = "?- " + text
    if not text.rstrip().endswith("."):
        text = text + "."
    program = parse_program(text)
    if len(program.queries) != 1:
        raise ParseError("expected exactly one query")
    return program.queries[0]


def parse_module(source: str) -> ModuleDecl:
    """Parse a source text expected to contain exactly one module."""
    program = parse_program(source)
    if len(program.modules) != 1:
        raise ParseError(
            f"expected exactly one module, found {len(program.modules)}"
        )
    return program.modules[0]
