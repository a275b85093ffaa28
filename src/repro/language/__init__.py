"""The language front end: lexer, AST, and parser (paper Sections 2, 5)."""

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
    answer_variables,
)
from .lexer import Token, tokenize
from .parser import (
    COMPARISON_OPS,
    QUERY_CACHE_SIZE,
    QUERY_CACHE_TEXT,
    cached_query,
    parse_module,
    parse_program,
    parse_query,
)

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "AggregateSelection",
    "Aggregation",
    "COMPARISON_OPS",
    "Command",
    "ExportDecl",
    "FlagAnnotation",
    "IndexAnnotation",
    "Literal",
    "MODULE_FLAGS",
    "ModuleDecl",
    "Program",
    "QUERY_CACHE_SIZE",
    "QUERY_CACHE_TEXT",
    "Query",
    "Rule",
    "Token",
    "answer_variables",
    "cached_query",
    "parse_module",
    "parse_program",
    "parse_query",
    "tokenize",
]
