"""Rendering terms and clauses back to parseable Prolog text.

``repr`` on terms is close to Prolog syntax but does not quote atoms that
need it; :func:`to_prolog` produces text that :func:`repro.clpr.program.
parse_term` reads back to an equal term (for ground terms — variables get
fresh identities on re-parse by design).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.clpr.program import Clause
from repro.clpr.terms import Atom, Num, Struct, Term, Var

_PLAIN_ATOM_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def atom_text(name: str) -> str:
    """*name* as an atom: bare when plain, else quoted, ``\\`` and ``'``
    escaped."""
    if name and name[0].islower() and set(name) <= _PLAIN_ATOM_CHARS:
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def to_prolog(term: Term) -> str:
    """Render *term* as parseable Prolog text."""
    if isinstance(term, Atom):
        return atom_text(term.name)
    if isinstance(term, Num):
        value: Fraction = term.value
        if value.denominator == 1:
            return str(value.numerator)
        return repr(float(value))
    if isinstance(term, Var):
        # Variables keep their display name; identity is not preserved
        # across a parse round-trip (each clause scopes its own).
        name = term.name if term.name and term.name[0].isupper() else f"V{term.id}"
        return name
    if isinstance(term, Struct):
        args = ", ".join(to_prolog(arg) for arg in term.args)
        return f"{atom_text(term.functor)}({args})"
    raise TypeError(f"cannot render {term!r}")


def clause_to_prolog(clause: Clause) -> str:
    """Render a clause (fact or rule) as one Prolog line."""
    head = to_prolog(clause.head)
    if clause.is_fact():
        return f"{head}."
    body = ", ".join(to_prolog(goal) for goal in clause.body)
    return f"{head} :- {body}."


def program_to_prolog(clauses: Iterable[Clause]) -> str:
    return "\n".join(clause_to_prolog(clause) for clause in clauses) + "\n"
