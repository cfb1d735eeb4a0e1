"""The CLP(R) text says what the built terms say.

The ``consistency`` output writes each base fact of
:meth:`FactSet.base_facts` with :func:`clpr_fact`; the ``clpr`` oracle
builds the same facts with :func:`clpr_term` (through
:func:`consistency_program`) and never parses them.  Reading the written
clauses back with the CLP(R) reader gives the built terms, clause for
clause — on the examples, the corpus, names that need quoting and
escaping, drawn facts, and periods whose ``repr`` has an exponent.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clpr.program import Clause, parse_clauses
from repro.consistency.facts import IncrementalFactGenerator, clpr_fact, clpr_term
from repro.consistency.rules import consistency_program
from repro.nmsl.compiler import NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet
from tests.corpus import CORPUS_SIZE, corpus, quoted_campus
from tests.nmsl.test_consistency_output import _renamed

_ROOT = Path(__file__).resolve().parents[2]
_COMPILER = NmslCompiler()


def _assert_text_says_what_the_terms_say(specification):
    facts = IncrementalFactGenerator(_COMPILER.tree).generate(specification)
    walked = [fact for _owner, fact in facts.base_facts()]
    read = parse_clauses("\n".join(map(clpr_fact, walked)))
    assert read == [Clause(clpr_term(fact, {})) for fact in walked]
    # The program the oracle runs holds the same clauses, per predicate
    # in text order.
    program = consistency_program(facts)
    by_predicate = {}
    for clause in read:
        by_predicate.setdefault(clause.indicator, []).append(clause)
    for indicator, clauses in by_predicate.items():
        assert program.clauses_for(indicator) == clauses, indicator


@pytest.mark.parametrize(
    "path", sorted((_ROOT / "examples").glob("*.nmsl")), ids=lambda p: p.stem
)
def test_examples(path):
    result = _COMPILER.compile(path.read_text(encoding="utf-8"))
    _assert_text_says_what_the_terms_say(result.specification)


@pytest.mark.parametrize(
    "parameters", corpus(), ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)]
)
def test_corpus(parameters):
    _assert_text_says_what_the_terms_say(
        SyntheticInternet(parameters).specification()
    )


def test_quoted_system_name():
    _assert_text_says_what_the_terms_say(
        _COMPILER.compile(quoted_campus()).specification
    )


def test_names_that_need_quoting():
    base = SyntheticInternet(
        InternetParameters(
            n_domains=3, systems_per_domain=2, applications_per_domain=1
        )
    ).specification()
    systems, domains = list(base.systems), list(base.domains)
    names = ["o'neil", "back\\slash", "Cap, comma", "x#1", "b@a", "\\'"]
    rename = dict(zip(systems, names))
    rename.update({domains[0]: "d'1", domains[1]: "it\\s, #@"})
    _assert_text_says_what_the_terms_say(_renamed(base, rename))


def test_a_period_below_ten_microseconds_ships_text_the_reader_reads():
    """``repr(1e-05)`` has an exponent the reader does not take; the
    period is shipped positionally instead."""
    text = (_ROOT / "examples" / "campus.nmsl").read_text(encoding="utf-8")
    result = _COMPILER.compile(
        text.replace("frequency >= 5 minutes", "frequency >= 0.00001 seconds")
    )
    bundle = _COMPILER.generate("consistency", result)
    shipped = "".join(unit.text for unit in bundle.units)
    assert (
        "proc_query(nocMonitor, param(0), 'mgmt.mib.interfaces', readonly, "
        "0.00001)." in shipped
    )
    assert "e-05" not in shipped
    _assert_text_says_what_the_terms_say(result.specification)


class TestWriting:
    def test_integral_numbers_are_integers(self):
        assert clpr_fact(("speed", "s", 300.0)) == "speed(s, 300)."

    def test_a_fractional_period_is_its_repr(self):
        assert clpr_fact(("p", 0.5)) == "p(0.5)."

    def test_tagged_entities_are_compound_terms(self):
        fact = ("contains", ("domain", "wisc-cs"), ("system", "romano"))
        assert clpr_fact(fact) == "contains(domain('wisc-cs'), system(romano))."

    def test_a_period_with_an_exponent_is_written_positionally(self):
        assert clpr_fact(("p", 1e-05)) == "p(0.00001)."
        assert clpr_fact(("p", 1.5e-07)) == "p(0.00000015)."

    def test_a_build_shares_each_leaf(self):
        leaves = {}
        first = clpr_term(("p", "mgmt.mib", 300.0), leaves)
        second = clpr_term(("q", ("system", "mgmt.mib"), 300.0), leaves)
        assert second.args[0].args[0] is first.args[0]
        assert second.args[1] is first.args[1]


_NAMES = st.one_of(
    st.sampled_from(
        ["public", "it's", "back\\slash", "\\'", "ReadOnly", "Cap, comma",
         "mgmt.mib.ip", "romano.cs.wisc.edu", "série", "名", "x#1",
         "is", ""]
    ),
    st.text(max_size=12),
)
_PERIODS = st.floats(
    min_value=1e-9, max_value=1e18, allow_nan=False, allow_infinity=False
)
_LEAVES = st.one_of(_NAMES, st.integers(min_value=0, max_value=10**18), _PERIODS)
_ARGS = st.one_of(
    _LEAVES,
    st.tuples(st.sampled_from(["system", "domain", "instance", "proc", "param"]),
              _LEAVES),
)
_FACTS = st.builds(
    lambda functor, args: (functor, *args),
    st.one_of(st.sampled_from(["proc_query", "contains", "speed"]), _NAMES),
    st.lists(_ARGS, min_size=1, max_size=6),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_FACTS)
@example(("perm_eq", "wisc-cs", "public", "mgmt.mib", "readonly", 300))
@example(("proc_query", "nocMonitor", ("param", 0), "mgmt.mib", "readonly", 1e-05))
@example(("contains", ("domain", "wisc-cs"), ("system", "romano")))
def test_a_drawn_fact_reads_back_as_its_term(fact):
    assert parse_clauses(clpr_fact(fact)) == [Clause(clpr_term(fact, {}))]
