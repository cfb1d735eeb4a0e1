"""Atoms as parseable Prolog text.

:func:`atom_text` writes a name so that :func:`repro.clpr.program.
parse_term` reads it back as the same :class:`~repro.clpr.terms.Atom`:
bare when it is a plain lower-case identifier, quoted otherwise.
"""

from __future__ import annotations

_PLAIN_ATOM_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def atom_text(name: str) -> str:
    """*name* as an atom: bare when plain, else quoted, ``\\`` and ``'``
    escaped."""
    if name and name[0].islower() and set(name) <= _PLAIN_ATOM_CHARS:
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"
