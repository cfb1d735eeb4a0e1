"""A CLP(R) substrate: constraint logic programming over the reals.

The paper's Consistency Checker is "a front end for the Prolog dialect
CLP(R)" (Heintze et al.), chosen for fast logical deduction plus numeric
constraints over the reals — the latter expressing frequency/timing limits.
CLP(R) itself is not available, so this package implements the needed core
from scratch:

* :mod:`repro.clpr.terms` — logic terms (variables, atoms, numbers,
  structures) with value semantics;
* :mod:`repro.clpr.unify` — trail-based unification with backtracking;
* :mod:`repro.clpr.constraints` — linear arithmetic constraints over the
  rationals with an incremental satisfiability check (Fourier–Motzkin
  elimination) and variable-bound extraction for the paper's "run the
  consistency check in reverse" mode;
* :mod:`repro.clpr.program` — clause database plus a Prolog-style text
  parser for rules and queries;
* :mod:`repro.clpr.solver` — SLD resolution with negation as failure
  (the paper's closed-world assumption) and constraint-store integration.
"""

from repro.clpr.terms import Atom, Num, Struct, Var, atom, num, struct, var
from repro.clpr.unify import Bindings, unify
from repro.clpr.constraints import Constraint, ConstraintStore, LinExpr
from repro.clpr.program import Clause, Program, parse_program, parse_query, parse_term
from repro.clpr.solver import Answer, Engine

__all__ = [
    "Answer",
    "Atom",
    "Bindings",
    "Clause",
    "Constraint",
    "ConstraintStore",
    "Engine",
    "LinExpr",
    "Num",
    "Program",
    "Struct",
    "Var",
    "atom",
    "num",
    "parse_program",
    "parse_query",
    "parse_term",
    "struct",
    "unify",
    "var",
]
