"""Property test: argument-indexed solving equals the unindexed loop.

:meth:`repro.clpr.program.Program.clauses_matching` hands the engine
only the clauses in the bucket of a goal's most selective bound
argument.  :class:`UnindexedProgram` keeps the textbook loop — try every
clause of the predicate, in source order — as the executable
specification.  Hypothesis draws random programs (facts and rules over
atoms, numbers, nested structures, shared variables, comparisons and
negation) and random queries, and asserts both engines give the same
answer *sequence*: the same answers, residual constraints included, in
the same order, and the same depth-limit error where one is raised.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clpr.program import Clause, Program
from repro.clpr.solver import Engine
from repro.clpr.terms import Atom, Num, Struct, Var, indicator_of
from repro.errors import ClprError


class UnindexedProgram(Program):
    """Every clause of the goal's predicate, whatever its arguments."""

    def clauses_matching(self, goal, walk=None):
        return self.clauses_for(indicator_of(goal))


#: The predicate universe: name -> arity.
PREDICATES = {"p": 1, "q": 2, "r": 2, "s": 3}
NAMES = ("X", "Y", "Z")

constants = st.one_of(
    st.sampled_from([Atom("a"), Atom("b"), Atom("c")]),
    st.integers(min_value=0, max_value=3).map(Num.of),
)


def terms(variables):
    """Arguments: a variable, a constant, or ``f/1``, ``g/2`` over them."""
    leaves = st.one_of(st.sampled_from(variables), constants)
    return st.one_of(
        leaves,
        leaves.map(lambda arg: Struct("f", (arg,))),
        st.tuples(leaves, leaves).map(lambda args: Struct("g", args)),
    )


def literals(variables):
    return st.sampled_from(sorted(PREDICATES)).flatmap(
        lambda name: st.tuples(
            *[terms(variables)] * PREDICATES[name]
        ).map(lambda args: Struct(name, args))
    )


def goals(variables):
    """A body goal: mostly a literal, sometimes a test or a negation."""
    number = st.one_of(
        st.sampled_from(variables), st.integers(0, 3).map(Num.of)
    )
    return st.one_of(
        literals(variables),
        literals(variables),
        literals(variables),
        st.tuples(st.sampled_from([">", "=<"]), number, number).map(
            lambda parts: Struct(parts[0], parts[1:])
        ),
        literals(variables).map(lambda goal: Struct("\\+", (goal,))),
    )


@st.composite
def clauses(draw):
    variables = [Var.fresh(name) for name in NAMES]
    head = draw(literals(variables))
    body = draw(st.lists(goals(variables), max_size=2))
    return Clause(head, tuple(body))


def answer_sequence(program, query, max_depth=8, limit=40):
    """The rendered answers, variable ids numbered by first appearance,
    ending in ``"error"`` if the engine raised."""
    engine = Engine(program, max_depth=max_depth)
    rendered = []
    try:
        for answer in engine.solve(query, limit=limit):
            rendered.append(repr(answer))
    except ClprError:
        rendered.append("error")
    numbering = {}
    canonical = [
        re.sub(
            r"_(\d+)\b",
            lambda match: "_" + str(
                numbering.setdefault(match.group(1), len(numbering))
            ),
            text,
        )
        for text in rendered
    ]
    return canonical, engine.stats["unifications"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    program=st.lists(clauses(), min_size=1, max_size=10),
    query=st.lists(
        literals([Var.fresh(name) for name in NAMES]), min_size=1, max_size=2
    ),
)
def test_indexed_solving_matches_the_unindexed_loop(program, query):
    indexed, tried = answer_sequence(Program(program), query)
    unindexed, tried_all = answer_sequence(UnindexedProgram(program), query)
    assert indexed == unindexed
    # The index only ever skips clauses whose head cannot match.
    assert tried <= tried_all
