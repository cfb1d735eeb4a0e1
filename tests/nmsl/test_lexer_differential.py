"""The production lexer against the old character-cursor lexer.

``tests/nmsl/reference_lexer.py`` is the oracle.  Every comparison is on
``(kind, text, start, end, line, column)`` per token and, when lexing
fails, on the exception type, message and location.  The two documented
departures (float-spelled words are ``WORD``; a ``PERIOD`` split off a
word has its own column) are applied to the oracle's answer by
:func:`expected` — and each is pinned by its own test at the bottom.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NmslSyntaxError, SourceLocation
from repro.nmsl.compiler import compile_text
from repro.nmsl.generic import parse_generic
from repro.nmsl.lexer import EOF, NUMBER, PERIOD, WORD, NmslToken, tokenize
from repro.workloads.generator import SyntheticInternet
from tests.corpus import corpus
from tests.nmsl import reference_lexer

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
NUMBER_SHAPE = re.compile(r"-?[0-9]+(\.[0-9]+)?")

#: Pieces random sources are made of: every punctuation character, both
#: quote outcomes, all layout characters (``\x1c`` is white space to
#: ``str.isspace``), comment openers, runs of dots and hyphens, words that
#: parse as floats, and non-ASCII text.
PIECES = (
    list(";,():<>=*{}[]|")
    + ["::=", ":=", "<=", ">=", '"', '"', " ", " ", "\n", "\r\n", "\t", "\x1c"]
    + ["--", "-", "---", ".", "..", "...", "_", "@", "é", "λx", " "]
    + ["a", "b1", "end", "x.y", "1", "12", "2.5", "-3", "1e5", "inf", "nan", "1_0"]
)


def located(text, offset):
    """Line and column of *offset*, counted the slow, obvious way."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def expected(text):
    """The oracle's answer for *text* with the two documented fixes."""
    try:
        tokens = reference_lexer.tokenize(text, "f")
    except NmslSyntaxError as exc:
        return type(exc), exc.message, exc.location
    rows = []
    for token in tokens:
        kind = token.kind
        where = token.location.line, token.location.column
        if kind == NUMBER and not NUMBER_SHAPE.fullmatch(token.text):
            kind = WORD
        if kind == PERIOD:
            where = located(text, token.start)
        rows.append((kind, token.text, token.start, token.end) + where)
    return rows


def actual(text):
    try:
        tokens = tokenize(text, "f")
    except NmslSyntaxError as exc:
        return type(exc), exc.message, exc.location
    return [
        (t.kind, t.text, t.start, t.end, t.location.line, t.location.column)
        for t in tokens
    ]


class TestAgainstTheOracle:
    def test_seeded_random_strings(self):
        rng = random.Random(1989)
        for _ in range(20_000):
            text = "".join(rng.choices(PIECES, k=rng.randint(0, 14)))
            assert actual(text) == expected(text), repr(text)

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(PIECES) | st.text(max_size=3), max_size=20))
    def test_property(self, pieces):
        text = "".join(pieces)
        assert actual(text) == expected(text)

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.nmsl")), ids=lambda p: p.name
    )
    def test_example_files(self, path):
        text = path.read_text(encoding="utf-8")
        assert actual(text) == expected(text)

    def test_the_fifty_spec_corpus(self):
        for parameters in corpus():
            text = SyntheticInternet(parameters).text()
            assert actual(text) == expected(text)

    def test_every_location_is_derived_from_start(self):
        text = (EXAMPLES / "campus.nmsl").read_text(encoding="utf-8")
        for token in tokenize(text, "campus"):
            assert token.location == SourceLocation(
                "campus", *located(text, token.start)
            )


def where(text):
    return [
        (t.text or t.kind, t.location.line, t.location.column)
        for t in tokenize(text)
    ]


class TestLocationEdges:
    def test_crlf_counts_the_carriage_return_as_a_column(self):
        assert where("a\r\nb \rc") == [
            ("a", 1, 1), ("b", 2, 1), ("c", 2, 4), (EOF, 2, 5)
        ]

    def test_tab_is_one_column(self):
        assert where("\tb")[0] == ("b", 1, 2)

    def test_last_line_without_newline(self):
        assert where("a\n  b") == [("a", 1, 1), ("b", 2, 3), (EOF, 2, 4)]

    def test_comment_at_eof(self):
        assert where("a -- done") == [("a", 1, 1), (EOF, 1, 10)]
        assert where("a -- done\n") == [("a", 1, 1), (EOF, 2, 1)]

    def test_multibyte_characters_count_once(self):
        assert where('"héé" x -- çà\ny')[1:3] == [("x", 1, 7), ("y", 2, 1)]

    def test_empty_input(self):
        (eof,) = tokenize("", "f")
        assert (eof.kind, eof.text, eof.start, eof.end) == (EOF, "", 0, 0)
        assert eof.location == SourceLocation("f", 1, 1)

    def test_error_locations(self):
        for text, message, column in (
            ('ab "cd', "unterminated string", 4),
            ('ab "cd\n"', "newline inside string", 4),
            ("ab @", "unexpected character '@'", 4),
        ):
            with pytest.raises(NmslSyntaxError) as excinfo:
                tokenize(text, "f")
            assert excinfo.value.message == message
            assert excinfo.value.location == SourceLocation("f", 1, column)


class TestTokenValue:
    def test_equality_hash_and_repr_are_over_all_five_fields(self):
        (a, _), (b, _) = tokenize("x", "f"), tokenize("x", "f")
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != tokenize(" x", "f")[0]  # same kind and text, other offset
        assert a != tokenize("x", "g")[0]  # other file
        assert a != ("WORD", "x")
        assert repr(a) == (
            "NmslToken(kind='WORD', text='x', location=SourceLocation("
            "filename='f', line=1, column=1), start=0, end=1)"
        )

    def test_explicit_location(self):
        there = SourceLocation("g", 7, 3)
        token = NmslToken(WORD, "a.b", there, 40, 43)
        assert token.location is there
        assert token == NmslToken(WORD, "a.b", SourceLocation("g", 7, 3), 40, 43)
        assert token.is_word("a.b") and not token.matches(NUMBER)

    def test_lexed_token_equals_hand_built_one(self):
        lexed = tokenize("\n  end", "f")[0]
        assert lexed == NmslToken(WORD, "end", SourceLocation("f", 2, 3), 3, 6)


FLOAT_SPELLED = ["nan", "NaN", "inf", "Inf", "infinity", "INFINITY", "1e5", "1_000"]


class TestFloatSpelledWordsAreWords:
    """Fix 1: ``NUMBER`` is ``-?[0-9]+(\\.[0-9]+)?``, not "what float() takes"."""

    @pytest.mark.parametrize("word", FLOAT_SPELLED + ["-inf", "1.5e3", "-.5"])
    def test_kind(self, word):
        token = tokenize(word)[0]
        assert (token.kind, token.text) == (WORD, word)
        assert reference_lexer.tokenize(word)[0].kind == NUMBER

    @pytest.mark.parametrize("literal", ["0", "10000000", "-3", "2.5", "-0.25"])
    def test_numbers_stay_numbers(self, literal):
        assert tokenize(literal)[0].kind == NUMBER

    @pytest.mark.parametrize("name", FLOAT_SPELLED)
    def test_as_declaration_name(self, name):
        (decl,) = parse_generic(
            f"process {name} ::= supports mgmt.mib; end process {name}."
        )
        assert decl.name == name

    @pytest.mark.parametrize("name", FLOAT_SPELLED)
    def test_as_domain_member(self, name):
        _compiler, result = compile_text(
            f"system {name} ::= cpu sparc; end system {name}.\n"
            f"domain d ::= system {name}; end domain d.\n"
        )
        assert not result.report.errors
        assert result.specification.domains["d"].systems == (name,)

    def test_not_a_frequency(self):
        _compiler, result = compile_text(
            "process p ::= supports mgmt.mib;\n"
            '  exports mgmt.mib to "public" access ReadOnly\n'
            "  frequency >= nan minutes;\nend process p.\n",
            strict=False,
        )
        assert "numeric value" in result.report.errors[0].message


class TestSplitPeriodHasItsOwnColumn:
    """Fix 2: locations come from ``start``, so a dot is where it is."""

    def test_token_locations(self):
        tokens = tokenize("end type x..")
        assert where("end type x..")[2:5] == [("x", 1, 10), (".", 1, 11), (".", 1, 12)]
        oracle = reference_lexer.tokenize("end type x..")
        assert [t.location.column for t in oracle[2:5]] == [10, 10, 10]
        assert [(t.start, t.end) for t in tokens] == [(t.start, t.end) for t in oracle]

    def test_parser_error_points_at_the_extra_dot(self):
        with pytest.raises(NmslSyntaxError) as excinfo:
            parse_generic("process a ::=\n  supports x;\nend process a..", "f")
        assert str(excinfo.value) == "f:3:15: expected 'WORD', found '.'"
