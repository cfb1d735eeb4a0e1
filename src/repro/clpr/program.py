"""Clause database and a Prolog-style reader for CLP(R) programs.

Syntax accepted (a practical Prolog subset)::

    % comment
    contains(wisc, romano).                       % fact
    ancestor(X, Z) :- contains(X, Y), ancestor(Y, Z).
    ok(T) :- T >= 300, \\+ blocked(T).            % constraints + negation
    label('romano.cs.wisc.edu').                  % quoted atoms

* Variables begin with an upper-case letter or ``_``.
* Atoms begin lower-case or are single-quoted.
* Numbers are integers or decimals.
* Goal operators: ``=``, ``\\=``, ``<``, ``=<``, ``>``, ``>=``, ``=:=``,
  ``=\\=``, ``is``, ``\\+`` (negation as failure).
* Arithmetic operators in arguments: ``+ - * /`` with usual precedence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.clpr.terms import (
    Atom,
    Num,
    Struct,
    Term,
    Var,
    indicator_of,
    rename,
)
from repro.errors import ClprSyntaxError, SourceLocation

# ----------------------------------------------------------------------
# Clauses and the database.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Clause:
    """``head :- body``; a fact is a clause with an empty body."""

    head: Term
    body: Tuple[Term, ...] = ()

    @property
    def indicator(self) -> Tuple[str, int]:
        return indicator_of(self.head)

    def is_fact(self) -> bool:
        return not self.body

    def fresh(self) -> "Clause":
        """A copy with all variables consistently renamed fresh."""
        mapping: Dict[Var, Var] = {}
        head = rename(self.head, mapping)
        body = tuple(rename(goal, mapping) for goal in self.body)
        return Clause(head, body)

    def __repr__(self) -> str:
        if self.is_fact():
            return f"{self.head!r}."
        goals = ", ".join(repr(goal) for goal in self.body)
        return f"{self.head!r} :- {goals}."


def _identity(term: Term) -> Term:
    return term


def _arg_keys(
    term: Term, walk: Callable[[Term], Term]
) -> Tuple[Optional[Hashable], Optional[Hashable]]:
    """The two index keys of an argument, ``None`` where it has none.

    The first is the atom, the number, or ``(functor, arity)``; the
    second refines a structure by its first argument when that is an
    atom or a number.  A head argument without a key matches anything
    at that level; a goal argument without one selects nothing there.
    """
    if isinstance(term, Var):
        return None, None
    if not isinstance(term, Struct):
        return term, term
    outer = (term.functor, len(term.args))
    first = walk(term.args[0]) if term.args else None
    if isinstance(first, (Atom, Num)):
        return outer, outer + (first,)
    return outer, None


def _column(clauses: List[Clause], keys: List[Optional[Hashable]]):
    """``({key: clauses}, unkeyed)``: each bucket holds, in source order,
    the clauses with that key and those with none."""
    buckets: Dict[Hashable, List[Clause]] = {
        key: [] for key in keys if key is not None
    }
    unkeyed: List[Clause] = []
    for clause, key in zip(clauses, keys):
        if key is not None:
            buckets[key].append(clause)
            continue
        unkeyed.append(clause)
        for bucket in buckets.values():
            bucket.append(clause)
    return buckets, unkeyed


def _build_index(clauses: List[Clause], arity: int):
    """Per argument position, a column for each of :func:`_arg_keys`."""
    index = []
    for position in range(arity):
        keys = [
            _arg_keys(clause.head.args[position], _identity)  # type: ignore
            for clause in clauses
        ]
        outer = [key[0] for key in keys]
        inner = [key[1] for key in keys]
        first = _column(clauses, outer)
        # Atom and number heads key both levels alike: share the column.
        second = first if inner == outer else _column(clauses, inner)
        index.append((first, second))
    return index


class Program:
    """A database of clauses indexed by predicate indicator and, within
    a predicate, by the keys of each head argument."""

    def __init__(self, clauses: Iterable[Clause] = ()):
        self._clauses: Dict[Tuple[str, int], List[Clause]] = {}
        self._index: Dict[Tuple[str, int], list] = {}
        for clause in clauses:
            self.add(clause)

    def add(self, clause: Clause) -> None:
        self._clauses.setdefault(clause.indicator, []).append(clause)
        self._index.pop(clause.indicator, None)

    def add_fact(self, fact: Term) -> None:
        self.add(Clause(fact))

    def extend(self, clauses: Iterable[Clause]) -> None:
        for clause in clauses:
            self.add(clause)

    def clauses_for(self, indicator: Tuple[str, int]) -> List[Clause]:
        return self._clauses.get(indicator, [])

    def clauses_matching(
        self, goal: Term, walk: Callable[[Term], Term] = _identity
    ) -> List[Clause]:
        """The clauses whose head may unify with *goal*, in source order.

        The candidates are the bucket of the goal's most selective bound
        argument: every clause that can match is in it, so trying only
        these finds the same answers in the same order as trying every
        clause of the predicate.  *walk* dereferences the goal's
        arguments (the engine passes its bindings' ``walk``).
        """
        indicator = indicator_of(goal)
        best = self._clauses.get(indicator, [])
        if len(best) < 2 or not isinstance(goal, Struct):
            return best
        index = self._index.get(indicator)
        if index is None:
            index = self._index[indicator] = _build_index(best, indicator[1])
        for position, arg in enumerate(goal.args):
            for (buckets, unkeyed), key in zip(
                index[position], _arg_keys(walk(arg), walk)
            ):
                if key is not None:
                    candidates = buckets.get(key, unkeyed)
                    if len(candidates) < len(best):
                        best = candidates
        return best

    def defines(self, indicator: Tuple[str, int]) -> bool:
        return indicator in self._clauses

    def indicators(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(self._clauses)

    def __len__(self) -> int:
        return sum(len(clauses) for clauses in self._clauses.values())

    def merged_with(self, other: "Program") -> "Program":
        merged = Program()
        for clauses in self._clauses.values():
            merged.extend(clauses)
        for clauses in other._clauses.values():
            merged.extend(clauses)
        return merged


# ----------------------------------------------------------------------
# Reader.
# ----------------------------------------------------------------------

_GOAL_OPS = ("=:=", "=\\=", ">=", "=<", "\\=", "is", "=", "<", ">")
_SYMBOLS = (":-", "?-", "\\+", "=:=", "=\\=", ">=", "=<", "\\=", "=", "<", ">",
            "(", ")", ",", ".", "+", "-", "*", "/")


@dataclass
class _Token:
    kind: str  # "atom" | "var" | "num" | "sym" | "eof"
    text: str
    location: SourceLocation
    value: object = None


class _Reader:
    def __init__(self, text: str, filename: str = "<clpr>"):
        self._text = text
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._col = 1
        self._tokens: List[_Token] = []
        self._index = 0
        self._tokenize()

    # -- lexing --------------------------------------------------------
    def _loc(self) -> SourceLocation:
        return SourceLocation(self._filename, self._line, self._col)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._text):
                return
            if self._text[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _peek_char(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._text[index] if index < len(self._text) else ""

    def _tokenize(self) -> None:
        while True:
            while True:
                ch = self._peek_char()
                if ch and ch.isspace():
                    self._advance()
                elif ch == "%":
                    while self._peek_char() and self._peek_char() != "\n":
                        self._advance()
                else:
                    break
            location = self._loc()
            ch = self._peek_char()
            if not ch:
                self._tokens.append(_Token("eof", "", location))
                return
            if ch == "'":
                self._advance()
                chars = []
                while self._peek_char() and self._peek_char() != "'":
                    if self._peek_char() == "\\" and self._peek_char(1):
                        self._advance()  # the backslash escapes the next char
                    chars.append(self._peek_char())
                    self._advance()
                if not self._peek_char():
                    raise ClprSyntaxError("unterminated quoted atom", location)
                self._advance()
                self._tokens.append(_Token("atom", "".join(chars), location))
                continue
            if ch.isdigit() or (
                ch == "." and self._peek_char(1).isdigit()
            ):
                start = self._pos
                while self._peek_char().isdigit():
                    self._advance()
                if self._peek_char() == "." and self._peek_char(1).isdigit():
                    self._advance()
                    while self._peek_char().isdigit():
                        self._advance()
                text = self._text[start : self._pos]
                value = float(text) if "." in text else int(text)
                self._tokens.append(_Token("num", text, location, value))
                continue
            if ch.isalpha() or ch == "_":
                start = self._pos
                while self._peek_char().isalnum() or self._peek_char() == "_":
                    self._advance()
                text = self._text[start : self._pos]
                kind = "var" if (text[0].isupper() or text[0] == "_") else "atom"
                self._tokens.append(_Token(kind, text, location))
                continue
            for symbol in _SYMBOLS:
                if self._text.startswith(symbol, self._pos):
                    # "." followed by a digit was handled above; a "." that
                    # ends a clause must not be confused with a decimal.
                    self._advance(len(symbol))
                    self._tokens.append(_Token("sym", symbol, location))
                    break
            else:
                raise ClprSyntaxError(f"unexpected character {ch!r}", location)

    # -- parsing helpers ------------------------------------------------
    def _peek(self, offset: int = 0) -> _Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> _Token:
        token = self._peek()
        if token.kind != "eof":
            self._index += 1
        return token

    def _expect_sym(self, symbol: str) -> _Token:
        token = self._next()
        if token.kind != "sym" or token.text != symbol:
            raise ClprSyntaxError(
                f"expected {symbol!r}, found {token.text or 'end of input'!r}",
                token.location,
            )
        return token

    def _accept_sym(self, symbol: str) -> bool:
        token = self._peek()
        if token.kind == "sym" and token.text == symbol:
            self._next()
            return True
        return False

    def at_end(self) -> bool:
        return self._peek().kind == "eof"

    # -- grammar ---------------------------------------------------------
    def parse_program(self) -> List[Clause]:
        """Parse a sequence of clauses, each terminated by ``.``."""
        clauses = []
        while not self.at_end():
            clauses.append(self.parse_clause())
        return clauses

    def parse_clause(self) -> Clause:
        scope: Dict[str, Var] = {}
        head = self._parse_goal(scope)
        body: Tuple[Term, ...] = ()
        if self._accept_sym(":-"):
            body = tuple(self._parse_goal_list(scope))
        self._expect_sym(".")
        return Clause(head, body)

    def parse_query(self) -> List[Term]:
        """Parse a goal list, optionally prefixed ``?-`` / terminated ``.``."""
        scope: Dict[str, Var] = {}
        self._accept_sym("?-")
        goals = self._parse_goal_list(scope)
        self._accept_sym(".")
        if not self.at_end():
            token = self._peek()
            raise ClprSyntaxError(
                f"trailing input {token.text!r}", token.location
            )
        return goals

    def _parse_goal_list(self, scope: Dict[str, Var]) -> List[Term]:
        goals = [self._parse_goal(scope)]
        while self._accept_sym(","):
            goals.append(self._parse_goal(scope))
        return goals

    def _parse_goal(self, scope: Dict[str, Var]) -> Term:
        if self._accept_sym("\\+"):
            inner = self._parse_goal(scope)
            return Struct("\\+", (inner,))
        left = self._parse_expr(scope)
        token = self._peek()
        if token.kind == "sym" and token.text in _GOAL_OPS:
            self._next()
            right = self._parse_expr(scope)
            return Struct(token.text, (left, right))
        if token.kind == "atom" and token.text == "is":
            self._next()
            right = self._parse_expr(scope)
            return Struct("is", (left, right))
        return left

    # Expression precedence: additive < multiplicative < primary.
    def _parse_expr(self, scope: Dict[str, Var]) -> Term:
        left = self._parse_mul(scope)
        while True:
            token = self._peek()
            if token.kind == "sym" and token.text in ("+", "-"):
                self._next()
                right = self._parse_mul(scope)
                left = Struct(token.text, (left, right))
            else:
                return left

    def _parse_mul(self, scope: Dict[str, Var]) -> Term:
        left = self._parse_primary(scope)
        while True:
            token = self._peek()
            if token.kind == "sym" and token.text in ("*", "/"):
                self._next()
                right = self._parse_primary(scope)
                left = Struct(token.text, (left, right))
            else:
                return left

    def _parse_primary(self, scope: Dict[str, Var]) -> Term:
        token = self._next()
        if token.kind == "num":
            return Num.of(token.value)  # type: ignore[arg-type]
        if token.kind == "sym" and token.text == "-":
            inner = self._parse_primary(scope)
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Struct("-", (Num.of(0), inner))
        if token.kind == "sym" and token.text == "(":
            inner = self._parse_expr(scope)
            self._expect_sym(")")
            return inner
        if token.kind == "var":
            if token.text == "_":
                return Var.fresh("_")
            if token.text not in scope:
                scope[token.text] = Var.fresh(token.text)
            return scope[token.text]
        if token.kind == "atom":
            if self._accept_sym("("):
                args = [self._parse_expr(scope)]
                while self._accept_sym(","):
                    args.append(self._parse_expr(scope))
                self._expect_sym(")")
                return Struct(token.text, tuple(args))
            return Atom(token.text)
        raise ClprSyntaxError(
            f"unexpected token {token.text or 'end of input'!r}", token.location
        )


def parse_program(text: str, filename: str = "<clpr>") -> Program:
    """Parse Prolog-style *text* into a :class:`Program`."""
    return Program(_Reader(text, filename).parse_program())


def parse_clauses(text: str, filename: str = "<clpr>") -> List[Clause]:
    return _Reader(text, filename).parse_program()


def parse_query(text: str, filename: str = "<clpr>") -> List[Term]:
    """Parse a query (goal list) such as ``?- ancestor(X, b), X \\= a.``"""
    return _Reader(text, filename).parse_query()


def parse_term(text: str, filename: str = "<clpr>") -> Term:
    """Parse a single term."""
    reader = _Reader(text, filename)
    term = reader._parse_expr({})
    reader._accept_sym(".")
    if not reader.at_end():
        token = reader._peek()
        raise ClprSyntaxError(f"trailing input {token.text!r}", token.location)
    return term
