"""Rewriting transformations (paper Sections 4.1, 5.3): adornment, the
magic-sets family, existential (projection) rewriting, context factoring,
and semi-naive delta-rule generation, plus the dependency-graph machinery
(SCCs, stratification) they and the evaluator share."""

from .adorn import AdornedProgram, adorn_program, adorned_name
from .existential import existential_rewrite
from .factoring import FactoringNotApplicable, factoring_rewrite
from .graph import (
    DependencyGraph,
    build_dependency_graph,
    check_stratified,
    condensation_order,
    recursive_predicates,
    strongly_connected_components,
)
from .magic import (
    MAGIC_PREFIX,
    RewrittenProgram,
    magic_literal,
    magic_rewrite,
    no_rewriting,
)
from .seminaive import DeltaRule, delta_rules, seminaive_rewrite
from .supmagic import supmagic_rewrite

__all__ = [
    "AdornedProgram",
    "DeltaRule",
    "DependencyGraph",
    "FactoringNotApplicable",
    "MAGIC_PREFIX",
    "RewrittenProgram",
    "adorn_program",
    "adorned_name",
    "build_dependency_graph",
    "check_stratified",
    "condensation_order",
    "delta_rules",
    "existential_rewrite",
    "factoring_rewrite",
    "magic_literal",
    "magic_rewrite",
    "no_rewriting",
    "recursive_predicates",
    "seminaive_rewrite",
    "strongly_connected_components",
    "supmagic_rewrite",
]
