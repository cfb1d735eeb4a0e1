"""Logic terms for the CLP(R) engine.

Four kinds of terms, all immutable:

* :class:`Var` — a logic variable, identified by a unique integer so two
  variables with the same display name are distinct;
* :class:`Atom` — a symbolic constant (``public``, ``snmpaddr``);
* :class:`Num` — a numeric constant (stored as :class:`fractions.Fraction`
  for exact arithmetic in the constraint solver);
* :class:`Struct` — a compound term ``functor(arg1, ..., argN)``.

Atoms are structures of arity 0 for indexing purposes but kept as a
separate class for clarity and compactness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Tuple, Union

_var_counter = itertools.count(1)

Numeric = Union[int, float, Fraction]


@dataclass(frozen=True)
class Term:
    """Base class for all logic terms."""


@dataclass(frozen=True)
class Var(Term):
    """A logic variable.  ``Var.fresh("X")`` creates a new, unique variable."""

    name: str
    id: int

    @classmethod
    def fresh(cls, name: str = "_") -> "Var":
        return cls(name, next(_var_counter))

    def __repr__(self) -> str:
        return f"{self.name}_{self.id}"


@dataclass(frozen=True)
class Atom(Term):
    """A symbolic constant."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Num(Term):
    """A numeric constant, exact (Fraction): a float is its binary
    value, so no period is too small to order."""

    value: Fraction

    @classmethod
    def of(cls, value: Numeric) -> "Num":
        return cls(Fraction(value))

    def __repr__(self) -> str:
        if self.value.denominator == 1:
            return str(self.value.numerator)
        return str(float(self.value))


@dataclass(frozen=True)
class Struct(Term):
    """A compound term ``functor(args...)``."""

    functor: str
    args: Tuple[Term, ...]

    @property
    def indicator(self) -> Tuple[str, int]:
        """The predicate indicator functor/arity used for clause indexing."""
        return (self.functor, len(self.args))

    def __repr__(self) -> str:
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.functor}({inner})"


# ----------------------------------------------------------------------
# Convenience constructors.
# ----------------------------------------------------------------------
def var(name: str = "_") -> Var:
    """A fresh logic variable."""
    return Var.fresh(name)


def atom(name: str) -> Atom:
    return Atom(name)


def num(value: Numeric) -> Num:
    return Num.of(value)


def struct(functor: str, *args: object) -> Struct:
    """Build a structure, converting plain Python values to terms."""
    return Struct(functor, tuple(to_term(arg) for arg in args))


def to_term(value: object) -> Term:
    """Convert a Python value to a term.

    Strings become atoms, numbers become :class:`Num`, terms pass through.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return Atom(value)
    if isinstance(value, bool):
        return Atom("true" if value else "false")
    if isinstance(value, (int, float, Fraction)):
        return Num.of(value)
    raise TypeError(f"cannot convert {value!r} to a logic term")


def indicator_of(term: Term) -> Tuple[str, int]:
    """Predicate indicator of an atom or structure."""
    if isinstance(term, Atom):
        return (term.name, 0)
    if isinstance(term, Struct):
        return term.indicator
    raise TypeError(f"term {term!r} is not callable")


def variables_in(term: Term) -> Iterator[Var]:
    """Yield each variable occurrence in *term* (with repeats)."""
    if isinstance(term, Var):
        yield term
    elif isinstance(term, Struct):
        for arg in term.args:
            yield from variables_in(arg)


def rename(term: Term, mapping: Dict[Var, Var]) -> Term:
    """Copy *term*, replacing variables via *mapping* (extended on demand)."""
    if isinstance(term, Var):
        renamed = mapping.get(term)
        if renamed is None:
            renamed = Var.fresh(term.name)
            mapping[term] = renamed
        return renamed
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(rename(arg, mapping) for arg in term.args))
    return term
