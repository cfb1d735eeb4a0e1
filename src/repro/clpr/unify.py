"""Trail-based unification.

:class:`Bindings` is a mutable variable store with an undo trail so the
solver can backtrack in O(bindings since choice point) instead of copying
substitutions.  :func:`unify` binds variables in place and records every
binding on the trail; the caller undoes to a saved mark on backtrack.
"""

from __future__ import annotations

from typing import Dict, List

from repro.clpr.terms import Struct, Term, Var


class Bindings:
    """A mutable substitution with an undo trail."""

    def __init__(self):
        self._map: Dict[Var, Term] = {}
        self._trail: List[Var] = []

    # ------------------------------------------------------------------
    # Core operations.
    # ------------------------------------------------------------------
    def walk(self, term: Term) -> Term:
        """Follow variable bindings until an unbound var or non-var term."""
        while isinstance(term, Var):
            bound = self._map.get(term)
            if bound is None:
                return term
            term = bound
        return term

    def bind(self, variable: Var, term: Term) -> None:
        """Bind an unbound variable, recording it on the trail."""
        self._map[variable] = term
        self._trail.append(variable)

    def mark(self) -> int:
        """A checkpoint for later :meth:`undo_to`."""
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        """Remove every binding made since *mark*."""
        while len(self._trail) > mark:
            variable = self._trail.pop()
            del self._map[variable]

    # ------------------------------------------------------------------
    # Term reconstruction.
    # ------------------------------------------------------------------
    def resolve(self, term: Term) -> Term:
        """Deep-walk *term*, substituting all bound variables."""
        term = self.walk(term)
        if isinstance(term, Struct):
            return Struct(term.functor, tuple(self.resolve(arg) for arg in term.args))
        return term

    def is_ground(self, term: Term) -> bool:
        term = self.walk(term)
        if isinstance(term, Var):
            return False
        if isinstance(term, Struct):
            return all(self.is_ground(arg) for arg in term.args)
        return True

    def snapshot(self) -> Dict[Var, Term]:
        """An immutable copy of the current mapping (fully resolved)."""
        return {variable: self.resolve(variable) for variable in self._map}

    def __len__(self) -> int:
        return len(self._map)


def occurs(variable: Var, term: Term, bindings: Bindings) -> bool:
    """Occurs check: does *variable* appear inside *term*?"""
    term = bindings.walk(term)
    if term == variable:
        return True
    if isinstance(term, Struct):
        return any(occurs(variable, arg, bindings) for arg in term.args)
    return False


def unify(
    left: Term,
    right: Term,
    bindings: Bindings,
    occurs_check: bool = False,
) -> bool:
    """Unify two terms in place.

    Returns True on success (bindings extended), False on failure — in
    which case the caller must undo to its own mark; this function does not
    undo partial progress itself.
    """
    left = bindings.walk(left)
    right = bindings.walk(right)
    if left == right:
        return True
    if isinstance(left, Var):
        if occurs_check and occurs(left, right, bindings):
            return False
        bindings.bind(left, right)
        return True
    if isinstance(right, Var):
        if occurs_check and occurs(right, left, bindings):
            return False
        bindings.bind(right, left)
        return True
    if isinstance(left, Struct) and isinstance(right, Struct):
        if left.indicator != right.indicator:
            return False
        return all(
            unify(l_arg, r_arg, bindings, occurs_check)
            for l_arg, r_arg in zip(left.args, right.args)
        )
    return False


def unify_or_undo(
    left: Term, right: Term, bindings: Bindings, occurs_check: bool = False
) -> bool:
    """Unify; on failure restore *bindings* to its state before the call."""
    mark = bindings.mark()
    if unify(left, right, bindings, occurs_check):
        return True
    bindings.undo_to(mark)
    return False
