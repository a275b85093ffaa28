"""Static program checking — the paper's acknowledged gap, filled.

Section 9, under "On the negative side": *"CORAL makes no effort to use type
information in its processing.  No type checking or inferencing is performed
at compile-time, and errors due to type mismatches lead to subtle run-time
errors."*  This module implements the compile-time checks CORAL's authors
wished they had, as warnings a session (or the shell's ``@check.`` command)
can surface before evaluation:

* **unknown predicate** — a body literal that no rule defines, no module
  exports, no base facts populate, and no builtin implements: almost always
  a typo, and exactly the class of mistake that otherwise surfaces as an
  empty answer set;
* **arity clash** — the same predicate name used at two different arities
  (legal, but usually an arity mistake);
* **singleton variable** — a named variable occurring exactly once in a
  rule: either dead or a misspelling of another variable;
* **unsafe rule** — a head variable bound by no positive body literal: the
  rule derives non-ground facts, which CORAL *supports* (Section 3.1) but
  which is more often an accident than an intention;
* **unsafe negation / comparison** — a variable appearing only under
  negation or only in a comparison, which can never be bound when the
  literal is evaluated;
* **type conflict** — a predicate argument position that is used with
  constants of two different primitive types across the program's facts
  and rule constants (the paper's "subtle run-time errors" case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple as PyTuple

from .language.ast import ModuleDecl, Program, Rule
from .terms import Arg, Atom, Double, Int, Str

PredKey = PyTuple[str, int]

#: finding severities
WARNING = "warning"
ERROR = "error"


@dataclass(frozen=True)
class Finding:
    severity: str
    code: str
    message: str
    module: Optional[str] = None

    def __str__(self) -> str:
        where = f" [{self.module}]" if self.module else ""
        return f"{self.severity}: {self.code}{where}: {self.message}"


def _constant_type(arg: Arg) -> Optional[str]:
    if isinstance(arg, Int):
        return "integer"
    if isinstance(arg, Double):
        return "double"
    if isinstance(arg, Str):
        return "string"
    if isinstance(arg, Atom):
        return "atom"
    return None


class ProgramChecker:
    """Runs all checks over a parsed program plus session context."""

    def __init__(self, known_predicates: Set[PredKey], is_builtin) -> None:
        #: predicates known to exist outside the program being checked
        #: (base relations, other modules' exports)
        self.known = set(known_predicates)
        self.is_builtin = is_builtin or (lambda name, arity: False)

    # -- entry points --------------------------------------------------------

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        defined: Set[PredKey] = set(self.known)
        for fact in program.facts:
            defined.add(fact.head.key)
        for module in program.modules:
            defined.update(module.defined_predicates())
        arities: Dict[str, Set[int]] = {}
        for name, arity in defined:
            arities.setdefault(name, set()).add(arity)
        column_types: Dict[PyTuple[str, int, int], Set[str]] = {}

        for fact in program.facts:
            self._note_types(fact, column_types)
        for module in program.modules:
            for rule in module.rules:
                self._note_types(rule, column_types)
                findings.extend(
                    self._check_rule(rule, module.name, defined, arities)
                )
        findings.extend(self._type_conflicts(column_types))
        return findings

    def check_module(self, module: ModuleDecl) -> List[Finding]:
        program = Program(modules=[module])
        return self.check_program(program)

    # -- individual checks ------------------------------------------------------

    def _check_rule(
        self,
        rule: Rule,
        module_name: str,
        defined: Set[PredKey],
        arities: Dict[str, Set[int]],
    ) -> List[Finding]:
        findings: List[Finding] = []
        findings.extend(self._unknown_predicates(rule, module_name, defined, arities))
        findings.extend(self._singletons(rule, module_name))
        findings.extend(self._safety(rule, module_name))
        return findings

    def _unknown_predicates(self, rule, module_name, defined, arities):
        findings = []
        for literal in rule.body:
            key = literal.key
            if (
                key in defined
                or self.is_builtin(literal.pred, literal.arity)
            ):
                continue
            other_arities = arities.get(literal.pred, set())
            if other_arities:
                findings.append(
                    Finding(
                        WARNING,
                        "arity-clash",
                        f"{literal.pred} is used with arity {literal.arity} "
                        f"in `{rule}` but defined with arity "
                        f"{sorted(other_arities)}",
                        module_name,
                    )
                )
            else:
                findings.append(
                    Finding(
                        WARNING,
                        "unknown-predicate",
                        f"{literal.pred}/{literal.arity} in `{rule}` is not "
                        f"defined by any rule, fact, export, or builtin",
                        module_name,
                    )
                )
        return findings

    def _singletons(self, rule: Rule, module_name: str) -> List[Finding]:
        occurrences: Dict[int, int] = {}
        names: Dict[int, str] = {}
        terms = list(rule.head.args) + [
            arg for literal in rule.body for arg in literal.args
        ] + [aggregation.expr for _p, aggregation in rule.head_aggregates]
        for term in terms:
            for var in term.variables():
                occurrences[var.vid] = occurrences.get(var.vid, 0) + 1
                names[var.vid] = var.name
        findings = []
        for vid, count in occurrences.items():
            name = names[vid]
            if count == 1 and name != "_" and not name.startswith("_"):
                findings.append(
                    Finding(
                        WARNING,
                        "singleton-variable",
                        f"variable {name} occurs only once in `{rule}` "
                        f"(use _ if intentional)",
                        module_name,
                    )
                )
        return findings

    def _safety(self, rule: Rule, module_name: str) -> List[Finding]:
        findings = []
        positive_vids: Set[int] = set()
        for literal in rule.body:
            if not literal.negated and not self.is_builtin(
                literal.pred, literal.arity
            ):
                for arg in literal.args:
                    positive_vids.update(v.vid for v in arg.variables())
        # '=' can bind its variables too
        for literal in rule.body:
            if literal.pred == "=" and not literal.negated:
                for arg in literal.args:
                    positive_vids.update(v.vid for v in arg.variables())

        aggregate_positions = {p for p, _a in rule.head_aggregates}
        for position, arg in enumerate(rule.head.args):
            if position in aggregate_positions:
                continue
            for var in arg.variables():
                if var.vid not in positive_vids and rule.body:
                    findings.append(
                        Finding(
                            WARNING,
                            "unsafe-rule",
                            f"head variable {var.name} of `{rule}` is not "
                            f"bound by any positive body literal: the rule "
                            f"derives non-ground facts",
                            module_name,
                        )
                    )
        for literal in rule.body:
            if literal.negated:
                for arg in literal.args:
                    for var in arg.variables():
                        if var.vid not in positive_vids:
                            findings.append(
                                Finding(
                                    WARNING,
                                    "unsafe-negation",
                                    f"variable {var.name} occurs only under "
                                    f"negation in `{rule}`",
                                    module_name,
                                )
                            )
        return findings

    def _note_types(self, rule: Rule, column_types) -> None:
        literals = [rule.head] + list(rule.body)
        for literal in literals:
            if self.is_builtin(literal.pred, literal.arity):
                continue
            for position, arg in enumerate(literal.args):
                type_name = _constant_type(arg)
                if type_name is not None:
                    column_types.setdefault(
                        (literal.pred, literal.arity, position), set()
                    ).add(type_name)

    def _type_conflicts(self, column_types) -> List[Finding]:
        findings = []
        for (pred, arity, position), types in sorted(column_types.items()):
            meaningful = types - {"atom"} if len(types) > 1 else types
            if len(meaningful) > 1:
                findings.append(
                    Finding(
                        WARNING,
                        "type-conflict",
                        f"argument {position + 1} of {pred}/{arity} is used "
                        f"with {' and '.join(sorted(types))} constants",
                    )
                )
        return findings


def check_source(source: str, session=None) -> List[Finding]:
    """Parse and check a program text; with a session, its base relations,
    exports, and builtins count as known predicates."""
    from .language import parse_program

    program = parse_program(source)
    known: Set[PredKey] = set()
    is_builtin = None
    if session is not None:
        known.update(session.ctx.base_relations.keys())
        known.update(session.modules.exports.keys())
        is_builtin = session.ctx.is_builtin
    return ProgramChecker(known, is_builtin).check_program(program)
