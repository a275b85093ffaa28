"""Which consumer may run on a compiled form, and if not, why.

Paper §5.6: the interface to a module's exports "makes no assumptions about
the evaluation of the module".  Three consumers do depend on it, and this
is the one place that says how: one verdict per consumer, None when it may
run, else the reason of the first obstruction that blocks it.

* ``push`` — the push code generator, the default backend; a refusal runs
  the whole module interpreted (per-rule reasons, and a lazy form's
  recursive answer SCC, are codegen facts recorded as fallbacks there);
* ``maintain`` — memo repair and live views; a refusal evicts a memo entry
  on update and refuses a subscription;
* ``absorb`` — save-module resumption absorbs base inserts (§5.4.2); a
  refusal makes an insert start a fresh instance.

:meth:`Optimizer.compile` builds a form's verdicts once; the three that
depend on the session's state are added when an instance is built.
docs/INTERNALS.md ("Capabilities") is this table with the reasons why;
``tests/test_capabilities.py`` holds the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..relations import MarkedRelation

CONSUMERS = ("push", "maintain", "absorb")

#: one row per obstruction, in the order a form is checked: its reason and
#: the consumers it blocks; ``{}`` names the predicate (and module) at fault
OBSTRUCTIONS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "pipelining": ("the module is pipelined (@pipelining)", ("push", "maintain")),
    "save_module": (
        "the module retains shared state across calls (@save_module)",
        ("push", "maintain"),
    ),
    "ordered_search": ("the module uses ordered search", CONSUMERS),
    "aggregate_selection": ("the module declares aggregate selections", CONSUMERS),
    "multiset": (
        "the module uses multiset semantics (@multiset)", ("push", "maintain"),
    ),
    "grouping": ("the module uses grouped aggregation", ("maintain", "absorb")),
    "negation": ("the module uses negation", ("maintain", "absorb")),
    "impure": ("the module calls the side-effecting builtin {}", ("maintain",)),
    "cross_module": ("the module calls {} exported by module {}", CONSUMERS),
    "unmarked": ("base relation {} does not number its insertions", CONSUMERS),
    "traced": ("derivations are being traced (enable_tracing)", ("push",)),
}


@dataclass(frozen=True)
class Capabilities:
    """One verdict per consumer: None when it may run, else why not."""

    push: Optional[str] = None
    maintain: Optional[str] = None
    absorb: Optional[str] = None

    def lines(self) -> List[str]:
        """``consumer: yes`` or ``consumer: no — reason``, one per consumer."""
        return [
            f"{consumer}: " + ("yes" if reason is None else f"no — {reason}")
            for consumer, reason in vars(self).items()
        ]


def _verdicts(
    found: Sequence[Tuple[str, tuple]], base: Capabilities = Capabilities()
) -> Capabilities:
    """``base`` with every consumer it lets run refused by the first of the
    ``(obstruction, names)`` pairs in ``found`` that blocks it."""
    verdicts = dict(vars(base))
    for name, names in found:
        reason, blocks = OBSTRUCTIONS[name]
        for consumer in blocks:
            if verdicts[consumer] is None:
                verdicts[consumer] = reason.format(*names)
    return Capabilities(**verdicts)


def form_capabilities(module, compiled, lookup_builtin) -> Capabilities:
    """What a compiled form obstructs by itself: its module's flags, the
    evaluation the optimizer chose, and its rewritten rules."""
    found = [
        (name, ())
        for name, present in (
            ("pipelining", module.has_flag("pipelining")),
            ("save_module", compiled.save_module),
            ("ordered_search", compiled.ordered_search),
            ("aggregate_selection", compiled.constraints),
            ("multiset", compiled.multiset_preds),
        )
        if present
    ]
    for rule in compiled.rewritten.rules:
        if rule.head_aggregates:
            found.append(("grouping", ()))
        for literal in rule.body:
            builtin = lookup_builtin(*literal.key)
            if builtin is None:
                if literal.negated:
                    found.append(("negation", ()))
            elif not builtin.pure:
                found.append(("impure", ("%s/%d" % literal.key,)))
    return _verdicts(found)


def instance_capabilities(compiled, ctx, exports) -> Capabilities:
    """``compiled``'s verdicts plus the obstructions that depend on the
    session's state, checked when an instance is built: a read that another
    module exports (its instance is outside this one's repair, resumption
    and push state), a base relation that numbers no insertions (every
    reader of a base relation keeps a watermark on it), and derivation
    tracing (a proof tree needs each inference's premises, which pushed
    code never forms)."""
    found = []
    for key in compiled.reads:
        exported = exports.get(key)
        relation = ctx.base_relations.get(key)
        if exported is not None:
            found.append(("cross_module", ("%s/%d" % key, exported[0])))
        elif relation is not None and not isinstance(relation, MarkedRelation):
            found.append(("unmarked", ("%s/%d" % key,)))
    if ctx.tracer is not None:
        found.append(("traced", ()))
    return _verdicts(found, compiled.capabilities) if found else compiled.capabilities
