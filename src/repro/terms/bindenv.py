"""Binding environments and the trail.

Section 3.1: *"It is more efficient ... to record variable bindings in a
binding environment, at least during the course of an inference.  A binding
environment (often referred to as a bindenv) is a structure that stores
bindings for variables.  Therefore whenever a variable is accessed during an
inference, a corresponding binding environment must be accessed to find if
the variable has been bound."*

A binding maps a variable to a ``(term, environment)`` pair — the environment
in which *that term's own* variables are to be interpreted.  This is exactly
the structure of the paper's Figure 2, where ``Y`` is bound to ``Z`` in one
bindenv and ``Z`` to ``50`` in another: non-ground facts keep their private
environment while rule evaluation binds rule variables in the activation's
environment, with no copying.

Section 5.3: *"CORAL maintains a trail of variable bindings when a rule is
evaluated; this is used to undo variable bindings when the nested-loops join
considers the next tuple in any loop."*  :class:`Trail` implements that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .base import Arg
from .functor import Functor
from .variable import Var


class BindEnv:
    """A table of variable bindings for one inference / fact.

    Lookup is by the variable's ``vid``.  Environments are small and
    short-lived (one per rule activation), so a plain dict is the right
    structure.
    """

    __slots__ = ("_bindings",)

    def __init__(self) -> None:
        self._bindings: Dict[int, Tuple[Arg, Optional["BindEnv"]]] = {}

    def __len__(self) -> int:
        return len(self._bindings)

    def __contains__(self, var: Var) -> bool:
        return var.vid in self._bindings

    def lookup(self, var: Var) -> Optional[Tuple[Arg, Optional["BindEnv"]]]:
        """The ``(term, env)`` bound to ``var``, or None when unbound."""
        return self._bindings.get(var.vid)

    def bind(
        self,
        var: Var,
        term: Arg,
        env: Optional["BindEnv"],
        trail: Optional["Trail"] = None,
    ) -> None:
        """Bind ``var`` to ``term`` interpreted in ``env``.

        Records the binding on ``trail`` (when given) so a backtracking
        join can undo it.  Binding an already-bound variable is a logic
        error caught here rather than silently corrupting the env.
        """
        if var.vid in self._bindings:
            raise ValueError(f"variable {var} is already bound")
        self._bindings[var.vid] = (term, env)
        if trail is not None:
            trail.push(self, var)

    def clear(self) -> None:
        self._bindings.clear()

    def __repr__(self) -> str:
        inner = ", ".join(f"_{vid}={term}" for vid, (term, _) in self._bindings.items())
        return f"BindEnv({inner})"


class Trail:
    """A stack of bindings to undo on backtracking (Section 5.3)."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[Tuple[BindEnv, Var]] = []

    def mark(self) -> int:
        """The current height; pass to :meth:`undo_to` later."""
        return len(self._entries)

    def push(self, env: BindEnv, var: Var) -> None:
        self._entries.append((env, var))

    def undo_to(self, mark: int) -> None:
        """Unbind everything recorded after ``mark``."""
        entries = self._entries
        while len(entries) > mark:
            env, var = entries.pop()
            env._bindings.pop(var.vid, None)

    def __len__(self) -> int:
        return len(self._entries)


def deref(term: Arg, env: Optional[BindEnv]) -> Tuple[Arg, Optional[BindEnv]]:
    """Follow variable bindings until reaching a non-variable or an unbound
    variable.  Returns the final ``(term, env)`` pair."""
    while env is not None and term.__class__ is Var:
        bound = env._bindings.get(term.vid)
        if bound is None:
            break
        term, env = bound
    return term, env


def resolve(term: Arg, env: Optional[BindEnv]) -> Arg:
    """Deeply substitute bindings into ``term``, producing a standalone term.

    Unbound variables are kept as-is.  Used when a derived fact leaves the
    inference that produced it and must no longer depend on the activation's
    bindenv (e.g. before insertion into a relation).

    Iterative (explicit rebuild stack): derived facts routinely carry deep
    list terms — accumulated paths, for one — which must not be bounded by
    the host recursion limit.  A ground functor term is returned as it
    stands, whatever environment it came with: it has nothing to
    substitute.
    """
    while env is not None and term.__class__ is Var:  # deref, inlined
        bound = env._bindings.get(term.vid)
        if bound is None:
            break
        term, env = bound
    if term.__class__ is not Functor or term._ground:
        return term
    # frames: [functor, env, next-child-index, rebuilt-children]
    frames = [[term, env, 0, []]]
    result: Arg = term
    while frames:
        functor, frame_env, index, new_args = frames[-1]
        if index == len(functor.args):
            frames.pop()
            rebuilt = (
                functor
                if all(new is old for new, old in zip(new_args, functor.args))
                else Functor(functor.name, new_args)
            )
            if frames:
                frames[-1][3].append(rebuilt)
                frames[-1][2] += 1
            else:
                result = rebuilt
            continue
        child, child_env = deref(functor.args[index], frame_env)
        if isinstance(child, Functor) and not child._ground:
            frames.append([child, child_env, 0, []])
        else:
            new_args.append(child)
            frames[-1][2] = index + 1
    return result


def rename_term(term: Arg, mapping: Dict[int, Var]) -> Arg:
    """Standardize apart: replace each variable with a fresh one, consistently.

    ``mapping`` carries the replacements so several terms (e.g. all the
    arguments of a stored non-ground fact) share one renaming.
    """
    if isinstance(term, Var):
        replacement = mapping.get(term.vid)
        if replacement is None:
            replacement = Var(term.name)
            mapping[term.vid] = replacement
        return replacement
    if isinstance(term, Functor) and not term.is_ground():
        return Functor(term.name, tuple(rename_term(arg, mapping) for arg in term.args))
    return term


def canonicalize_term(term: Arg, mapping: Dict[int, Var]) -> Arg:
    """Rename variables to a canonical sequence ``$0, $1, ...`` in order of
    first occurrence.

    Two terms are *variants* (equal up to variable renaming) iff their
    canonical forms are structurally equal — the basis of the duplicate
    check on non-ground facts.
    """
    if isinstance(term, Var):
        replacement = mapping.get(term.vid)
        if replacement is None:
            position = len(mapping)
            replacement = mapping[term.vid] = (
                _CANONICAL[position]
                if position < len(_CANONICAL)
                else Var(f"${position}", vid=-(position + 1))
            )
        return replacement
    if isinstance(term, Functor) and not term.is_ground():
        return Functor(
            term.name, tuple(canonicalize_term(arg, mapping) for arg in term.args)
        )
    return term


#: the first canonical variables, made once: ``$n`` has vid ``-(n + 1)``
_CANONICAL = tuple(Var(f"${n}", vid=-(n + 1)) for n in range(16))


def term_variables(terms: Iterable[Arg]) -> List[Var]:
    """Distinct variables across ``terms``, in first-occurrence order."""
    seen: Dict[int, Var] = {}
    for term in terms:
        for var in term.variables():
            seen.setdefault(var.vid, var)
    return list(seen.values())
