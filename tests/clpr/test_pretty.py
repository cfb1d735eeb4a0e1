"""Atom rendering: bare when plain, quoted and escaped otherwise, and
read back by the CLP(R) reader as the atom it stands for.

That whole written facts read back to their terms is held by
``tests/consistency/test_fact_renderings.py``, over drawn facts.
"""

from hypothesis import given, strategies as st

from repro.clpr.pretty import atom_text
from repro.clpr.program import Clause, parse_clauses, parse_term
from repro.clpr.terms import Atom
from repro.consistency.facts import clpr_fact, clpr_term


class TestRendering:
    def test_plain_atom(self):
        assert atom_text("public") == "public"

    def test_quoted_atom(self):
        assert atom_text("romano.cs.wisc.edu") == "'romano.cs.wisc.edu'"

    def test_uppercase_atom_quoted(self):
        assert atom_text("ReadOnly") == "'ReadOnly'"

    def test_atom_with_quote_escaped(self):
        assert atom_text("it's") == r"'it\'s'"


names = st.one_of(
    st.from_regex(r"[a-z][a-zA-Z0-9_]{0,8}", fullmatch=True),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=1,
        max_size=12,
    ),
)


class TestRoundTrip:
    @given(names)
    def test_ground_terms_round_trip(self, name):
        assert parse_term(atom_text(name)) == Atom(name)

    def test_consistency_fact_round_trip(self):
        text = "perm_eq('wisc-cs', public, 'mgmt.mib', readonly, 300)"
        fact = ("perm_eq", "wisc-cs", "public", "mgmt.mib", "readonly", 300)
        assert parse_clauses(clpr_fact(fact)) == [Clause(clpr_term(fact, {}))]
        assert parse_clauses(clpr_fact(fact)) == [Clause(parse_term(text))]
