"""Relation representation and implementation (paper Sections 3.2, 3.3, 7.2).

The evaluator sees only :class:`Relation` and its cursor
(:class:`TupleIterator`); concrete implementations — hash relations with
marks and indexes, list relations, persistent relations over the storage
manager, host-function relations — all hide behind that interface.
"""

from .base import (
    GeneratorTupleIterator,
    ListTupleIterator,
    Relation,
    RowCursor,
    Tuple,
    TupleIterator,
    make_tuple,
)
from .index import (
    VAR_BUCKET,
    ArgumentIndexSpec,
    Index,
    IndexSpec,
    PatternIndexSpec,
)
from .memory import (
    DuplicatePolicy,
    HashRelation,
    ListRelation,
    MarkedRelation,
    Watermark,
    interned_columns,
)

__all__ = [
    "ArgumentIndexSpec",
    "DuplicatePolicy",
    "GeneratorTupleIterator",
    "HashRelation",
    "Index",
    "IndexSpec",
    "ListRelation",
    "ListTupleIterator",
    "MarkedRelation",
    "PatternIndexSpec",
    "Relation",
    "RowCursor",
    "Tuple",
    "TupleIterator",
    "VAR_BUCKET",
    "Watermark",
    "make_tuple",
]
