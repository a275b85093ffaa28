"""Term representation: the CORAL data manager's type layer (paper Section 3).

Public surface:

* :class:`Arg` and the primitive constants (:class:`Int`, :class:`BigNum`,
  :class:`Double`, :class:`Str`, :class:`Atom`);
* :class:`Var` — variables as a primitive type, enabling non-ground facts;
* :class:`Functor` plus list helpers (``cons``/``make_list``/``NIL``);
* hash-consing (:func:`hc_id`);
* binding environments (:class:`BindEnv`, :class:`Trail`, :func:`deref`,
  :func:`resolve`);
* unification and matching (:func:`unify`, :func:`match`, :func:`subsumes`,
  :func:`variant`).
"""

from .base import Arg, Atom, BigNum, Double, Int, Str, from_arg, to_arg
from .bindenv import (
    BindEnv,
    Trail,
    canonicalize_term,
    deref,
    rename_term,
    resolve,
    term_variables,
)
from .functor import (
    CONS,
    NIL,
    Functor,
    cons,
    is_cons,
    is_nil,
    list_elements,
    make_list,
)
from .hashcons import hc_id
from .unify import match, subsumes, unify, variant
from .variable import Var, fresh, is_anonymous

__all__ = [
    "Arg",
    "Atom",
    "BigNum",
    "BindEnv",
    "CONS",
    "Double",
    "Functor",
    "Int",
    "NIL",
    "Str",
    "Trail",
    "Var",
    "canonicalize_term",
    "cons",
    "deref",
    "fresh",
    "from_arg",
    "hc_id",
    "is_anonymous",
    "is_cons",
    "is_nil",
    "list_elements",
    "make_list",
    "match",
    "rename_term",
    "resolve",
    "subsumes",
    "term_variables",
    "to_arg",
    "unify",
    "variant",
]
