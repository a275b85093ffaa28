"""Builtin predicates: comparisons, arithmetic, lists, I/O (Section 6.2)."""

from .core import eval_arith, is_arith_expr, number_to_arg
from .registry import Builtin, BuiltinRegistry, default_registry

__all__ = [
    "Builtin",
    "BuiltinRegistry",
    "default_registry",
    "eval_arith",
    "is_arith_expr",
    "number_to_arg",
]
