"""SLD resolution with linear-constraint integration (the CLP(R) engine).

The engine answers queries against a :class:`~repro.clpr.program.Program`
by depth-first SLD resolution with backtracking.  Arithmetic comparisons
become constraints in a :class:`~repro.clpr.constraints.ConstraintStore`
when their arguments are not ground, giving the CLP(R) behaviour the paper
relies on for timing/frequency reasoning — including "running the check in
reverse": a query with free numeric parameters succeeds with *residual
constraints* describing the satisfying parameter values.

Builtins: ``true``, ``fail``, ``=``, ``\\=``, ``\\+`` (negation as failure,
matching the paper's closed-world assumption), ``is``, and the comparisons
``=:=  =\\=  <  =<  >  >=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.clpr.constraints import Bound, Constraint, ConstraintStore, LinExpr
from repro.clpr.program import Program, parse_query
from repro.clpr.terms import Atom, Num, Struct, Term, Var, indicator_of
from repro.clpr.unify import Bindings, unify
from repro.errors import ClprError, ConstraintError

_COMPARISONS = {
    "=:=": "=",
    "=\\=": "!=",
    "<": "<",
    "=<": "<=",
    ">": ">",
    ">=": ">=",
}

_ARITH_FUNCTORS = {"+", "-", "*", "/"}


@dataclass
class Answer:
    """One solution: query-variable values plus residual numeric bounds."""

    bindings: Dict[str, Term]
    residual: Tuple[Bound, ...] = ()

    def value(self, name: str) -> Term:
        if name not in self.bindings:
            raise ClprError(f"no query variable named {name!r}")
        return self.bindings[name]

    def __repr__(self) -> str:
        parts = [f"{name} = {term!r}" for name, term in sorted(self.bindings.items())]
        parts.extend(repr(bound) for bound in self.residual)
        return "{" + ", ".join(parts) + "}"


class Engine:
    """A CLP(R)-style solver over a clause database."""

    def __init__(self, program: Program, max_depth: int = 4000):
        self._program = program
        self._max_depth = max_depth
        #: Plain-int work tallies (unification attempts, constraints
        #: pushed to the store) — read by callers feeding repro.obs.
        self.stats: Dict[str, int] = {
            "unifications": 0,
            "constraint_propagations": 0,
        }

    @property
    def program(self) -> Program:
        return self._program

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def solve(
        self,
        query: Union[str, Sequence[Term]],
        limit: Optional[int] = None,
    ) -> Iterator[Answer]:
        """Yield solutions to *query* (text or a pre-parsed goal list)."""
        goals = parse_query(query) if isinstance(query, str) else list(query)
        query_vars = _query_variables(goals)
        bindings = Bindings()
        store = ConstraintStore()
        count = 0
        for _ in self._solve_goals(list(goals), bindings, store, 0):
            answer = self._make_answer(query_vars, bindings, store)
            yield answer
            count += 1
            if limit is not None and count >= limit:
                return

    def ask(self, query: Union[str, Sequence[Term]]) -> bool:
        """True if *query* has at least one solution."""
        for _answer in self.solve(query, limit=1):
            return True
        return False

    def first(self, query: Union[str, Sequence[Term]]) -> Optional[Answer]:
        for answer in self.solve(query, limit=1):
            return answer
        return None

    def all(self, query: Union[str, Sequence[Term]], limit: int = 10000) -> List[Answer]:
        return list(self.solve(query, limit=limit))

    # ------------------------------------------------------------------
    # Resolution.
    # ------------------------------------------------------------------
    def _solve_goals(
        self,
        goals: List[Term],
        bindings: Bindings,
        store: ConstraintStore,
        depth: int,
    ) -> Iterator[None]:
        if depth > self._max_depth:
            raise ClprError(f"proof exceeded depth limit {self._max_depth}")
        if not goals:
            yield None
            return
        goal, rest = goals[0], goals[1:]
        goal = bindings.walk(goal)
        yield from self._solve_one(goal, rest, bindings, store, depth)

    def _solve_one(
        self,
        goal: Term,
        rest: List[Term],
        bindings: Bindings,
        store: ConstraintStore,
        depth: int,
    ) -> Iterator[None]:
        if isinstance(goal, Var):
            raise ClprError("unbound variable used as a goal")
        if isinstance(goal, Num):
            raise ClprError(f"number {goal!r} used as a goal")

        name, arity = indicator_of(goal)

        # --- control builtins ---
        if (name, arity) == ("true", 0):
            yield from self._solve_goals(rest, bindings, store, depth + 1)
            return
        if (name, arity) == ("fail", 0) or (name, arity) == ("false", 0):
            return
        if (name, arity) == ("\\+", 1):
            assert isinstance(goal, Struct)
            mark_b, mark_c = bindings.mark(), store.mark()
            succeeded = False
            for _ in self._solve_goals([goal.args[0]], bindings, store, depth + 1):
                succeeded = True
                break
            bindings.undo_to(mark_b)
            store.undo_to(mark_c)
            if not succeeded:
                yield from self._solve_goals(rest, bindings, store, depth + 1)
            return

        # --- unification builtins ---
        if (name, arity) == ("=", 2):
            assert isinstance(goal, Struct)
            yield from self._builtin_unify(goal, rest, bindings, store, depth)
            return
        if (name, arity) == ("\\=", 2):
            assert isinstance(goal, Struct)
            mark_b = bindings.mark()
            unifiable = unify(goal.args[0], goal.args[1], bindings)
            bindings.undo_to(mark_b)
            if not unifiable:
                yield from self._solve_goals(rest, bindings, store, depth + 1)
            return

        # --- arithmetic builtins ---
        if name in _COMPARISONS and arity == 2:
            assert isinstance(goal, Struct)
            yield from self._builtin_compare(
                goal, _COMPARISONS[name], rest, bindings, store, depth
            )
            return
        if (name, arity) == ("is", 2):
            assert isinstance(goal, Struct)
            yield from self._builtin_is(goal, rest, bindings, store, depth)
            return

        # --- user predicates ---
        for clause in self._program.clauses_matching(goal, bindings.walk):
            renamed = clause.fresh()
            mark_b, mark_c = bindings.mark(), store.mark()
            self.stats["unifications"] += 1
            if unify(goal, renamed.head, bindings):
                new_goals = list(renamed.body) + rest
                yield from self._solve_goals(new_goals, bindings, store, depth + 1)
            bindings.undo_to(mark_b)
            store.undo_to(mark_c)

    # ------------------------------------------------------------------
    # Builtins.
    # ------------------------------------------------------------------
    def _builtin_unify(self, goal, rest, bindings, store, depth):
        mark_b = bindings.mark()
        self.stats["unifications"] += 1
        if unify(goal.args[0], goal.args[1], bindings):
            yield from self._solve_goals(rest, bindings, store, depth + 1)
        bindings.undo_to(mark_b)

    def _builtin_compare(self, goal, op, rest, bindings, store, depth):
        try:
            left = _linearize(goal.args[0], bindings)
            right = _linearize(goal.args[1], bindings)
        except ConstraintError:
            # Non-numeric comparison: =:= on atoms fails; atoms are not
            # arithmetic in this engine.
            return
        constraint = Constraint.compare(left, op, right)
        truth = constraint.evaluate()
        if truth is True:
            yield from self._solve_goals(rest, bindings, store, depth + 1)
            return
        if truth is False:
            return
        mark_c = store.mark()
        self.stats["constraint_propagations"] += 1
        if store.add(constraint):
            yield from self._solve_goals(rest, bindings, store, depth + 1)
        store.undo_to(mark_c)

    def _builtin_is(self, goal, rest, bindings, store, depth):
        """CLP(R)-style ``is``: an equality over the reals."""
        try:
            right = _linearize(goal.args[1], bindings)
        except ConstraintError as exc:
            raise ClprError(f"non-linear arithmetic in is/2: {exc}") from exc
        left_term = bindings.walk(goal.args[0])
        if right.is_constant():
            mark_b = bindings.mark()
            if unify(left_term, Num(right.const), bindings):
                yield from self._solve_goals(rest, bindings, store, depth + 1)
            bindings.undo_to(mark_b)
            return
        left = _linearize(goal.args[0], bindings)
        constraint = Constraint.compare(left, "=", right)
        truth = constraint.evaluate()
        if truth is True:
            yield from self._solve_goals(rest, bindings, store, depth + 1)
            return
        if truth is False:
            return
        mark_c = store.mark()
        self.stats["constraint_propagations"] += 1
        if store.add(constraint):
            yield from self._solve_goals(rest, bindings, store, depth + 1)
        store.undo_to(mark_c)

    # ------------------------------------------------------------------
    # Answers.
    # ------------------------------------------------------------------
    def _make_answer(
        self,
        query_vars: Dict[str, Var],
        bindings: Bindings,
        store: ConstraintStore,
    ) -> Answer:
        resolved: Dict[str, Term] = {}
        residual: List[Bound] = []
        for name, variable in query_vars.items():
            value = bindings.resolve(variable)
            resolved[name] = value
            if isinstance(value, Var):
                bounds = store.bounds_for(value)
                for bound in bounds:
                    residual.append(Bound(Var(name, bound.variable.id), bound.op, bound.value))
                    if bound.op == "=":
                        resolved[name] = Num(bound.value)
        return Answer(resolved, tuple(residual))


def _query_variables(goals: Sequence[Term]) -> Dict[str, Var]:
    """Named (non-underscore) variables of the query, in first-seen order."""
    found: Dict[str, Var] = {}

    def visit(term: Term) -> None:
        if isinstance(term, Var):
            if term.name != "_" and term.name not in found:
                found[term.name] = term
        elif isinstance(term, Struct):
            for arg in term.args:
                visit(arg)

    for goal in goals:
        visit(goal)
    return found


def _linearize(term: Term, bindings: Bindings) -> LinExpr:
    """Convert an arithmetic term to a linear expression.

    Raises ConstraintError on non-numeric leaves or non-linear products.
    """
    term = bindings.walk(term)
    if isinstance(term, Num):
        return LinExpr.constant(term.value)
    if isinstance(term, Var):
        return LinExpr.variable(term)
    if isinstance(term, Atom):
        raise ConstraintError(f"atom {term!r} in arithmetic expression")
    if isinstance(term, Struct) and term.functor in _ARITH_FUNCTORS:
        if len(term.args) == 2:
            left = _linearize(term.args[0], bindings)
            right = _linearize(term.args[1], bindings)
            if term.functor == "+":
                return left + right
            if term.functor == "-":
                return left - right
            if term.functor == "*":
                if left.is_constant():
                    return right.scaled(left.const)
                if right.is_constant():
                    return left.scaled(right.const)
                raise ConstraintError("non-linear product of two variables")
            if term.functor == "/":
                if not right.is_constant():
                    raise ConstraintError("division by a non-constant")
                if right.const == 0:
                    raise ConstraintError("division by zero")
                return left.scaled(Fraction(1) / right.const)
        if len(term.args) == 1 and term.functor == "-":
            return _linearize(term.args[0], bindings).scaled(-1)
    raise ConstraintError(f"cannot linearize term {term!r}")
