"""Tests for logic terms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clpr.terms import (
    Atom,
    Num,
    Struct,
    Var,
    atom,
    indicator_of,
    num,
    rename,
    struct,
    to_term,
    var,
    variables_in,
)


class TestConstruction:
    def test_fresh_vars_distinct(self):
        assert var("X") != var("X")

    def test_atom_equality(self):
        assert atom("public") == atom("public")

    def test_num_exact_fraction(self):
        assert num(0.5).value == Fraction(1, 2)

    def test_num_int(self):
        assert num(300).value == Fraction(300)

    def test_struct_builder_converts(self):
        term = struct("contains", "wisc", 5)
        assert term.args == (Atom("wisc"), Num(Fraction(5)))

    def test_to_term_bool(self):
        assert to_term(True) == Atom("true")

    def test_to_term_rejects_unknown(self):
        with pytest.raises(TypeError):
            to_term(object())

    def test_to_term_passthrough(self):
        x = var("X")
        assert to_term(x) is x


PERIODS = st.floats(min_value=1e-12, max_value=1e18)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PERIODS, PERIODS)
def test_a_float_num_is_the_float_exactly(x, y):
    """A float becomes its exact value: equal floats give equal terms,
    order is kept at any scale (a period of 1e-12 s too), and the term
    reads as the float does."""
    assert Num.of(x) == Num.of(float(repr(x)))
    assert (Num.of(x).value < Num.of(y).value) == (x < y)
    assert (Num.of(x) == Num.of(y)) == (x == y)
    assert repr(Num.of(x)) == (str(int(x)) if x.is_integer() else repr(x))


class TestIntrospection:
    def test_indicator(self):
        assert indicator_of(struct("ref", 1, 2, 3)) == ("ref", 3)
        assert indicator_of(atom("true")) == ("true", 0)

    def test_indicator_of_var_rejected(self):
        with pytest.raises(TypeError):
            indicator_of(var("X"))

    def test_variables_in(self):
        x, y = var("X"), var("Y")
        term = struct("f", x, struct("g", y, x))
        assert list(variables_in(term)) == [x, y, x]

    def test_repr_forms(self):
        assert repr(atom("a")) == "a"
        assert repr(num(3)) == "3"
        assert repr(num(1.5)) == "1.5"
        assert repr(struct("f", "a")) == "f(a)"


class TestRename:
    def test_rename_consistent(self):
        x = var("X")
        term = struct("f", x, x)
        renamed = rename(term, {})
        assert isinstance(renamed, Struct)
        assert renamed.args[0] == renamed.args[1]
        assert renamed.args[0] != x

    def test_rename_preserves_constants(self):
        term = struct("f", "a", 1)
        assert rename(term, {}) == term
