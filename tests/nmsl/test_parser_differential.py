"""The production pass 1 against the old token-list parser.

``tests/nmsl/reference_parser.py`` is the oracle: it lexes the whole
text first, then walks the token list.  Every comparison is on the
declarations (decltype, name, parameter tokens, location, and each
clause's ``raw_text``, ``tokens`` and ``location``) or, when parsing
fails, on the exception type, message and location — so a lexical error
must still win over a syntax error that comes before it in the text.
"""

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NmslSyntaxError
from repro.nmsl.generic import parse_generic
from repro.workloads.generator import SyntheticInternet
from tests.corpus import corpus
from tests.nmsl import reference_parser
from tests.nmsl.test_lexer_differential import PIECES

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Clause-level pieces on top of the lexer's: clause ends, heads and
#: tails of declarations, brackets, comments, and strings holding ``;``
#: or ``--``.
CLAUSE_PIECES = PIECES + [
    ";", ";", "::=", " end ", "(", ")", "{", "}", "[", "]",
    "-- note\n", "--;\n", '"a;b"', '"x--y"', '"("',
    "process p ::= ", "end process p.", " supports mgmt.mib", "\x0c",
]


def outcome(parse, text):
    try:
        declarations = parse(text, "f")
    except NmslSyntaxError as exc:
        return type(exc), exc.message, exc.location
    return [
        (
            d.decltype,
            d.name,
            d.params,
            d.location,
            [(c.raw_text, c.tokens, c.location) for c in d.clauses],
        )
        for d in declarations
    ]


def agree(text):
    assert outcome(parse_generic, text) == outcome(
        reference_parser.parse_generic, text
    ), repr(text)


class TestAgainstTheOracle:
    def test_seeded_random_strings(self):
        rng = random.Random(1989)
        for _ in range(20_000):
            agree("".join(rng.choices(PIECES, k=rng.randint(0, 14))))

    def test_seeded_clause_bodies(self):
        """The same, inside a declaration head, so clauses get parsed."""
        rng = random.Random(1989)
        for _ in range(5_000):
            body = "".join(rng.choices(CLAUSE_PIECES, k=rng.randint(0, 14)))
            agree(f"process p ::= {body}; end process p.")

    @settings(max_examples=300)
    @given(
        st.sampled_from(["", "process p ::= ", "system s ::= cpu x;"]),
        st.lists(st.sampled_from(CLAUSE_PIECES) | st.text(max_size=3), max_size=24),
    )
    def test_property(self, head, pieces):
        agree(head + "".join(pieces))

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.nmsl")), ids=lambda p: p.name
    )
    def test_example_files(self, path):
        agree(path.read_text(encoding="utf-8"))

    def test_the_fifty_spec_corpus(self):
        for parameters in corpus():
            agree(SyntheticInternet(parameters).text())


class TestEdges:
    @pytest.mark.parametrize(
        "text",
        [
            'system s ::= cpu "a;b" -- c; d\n x; end system s.',
            "system s ::= cpu x\r\n  y;\r\nend system s.\r\n",
            "system s ::= cpu x\x0c\x1c y; end system s.",
            "system s ::= cpu é; end system s.",
            "system s ::= cpu x;; end system s.",
            "process p ::= supports x); end process p.",
            "process p ::= supports x end process p.",
            "process p ::= supports a.\n b.c; end process p.",
        ],
    )
    def test_cases(self, text):
        agree(text)

    def test_lexical_error_after_a_syntax_error_wins(self):
        text = "process p ::= ; end process p.\nsystem s ::= cpu @; end system s."
        with pytest.raises(NmslSyntaxError) as excinfo:
            parse_generic(text, "f")
        assert str(excinfo.value) == "f:2:18: unexpected character '@'"
        agree(text)

    def test_plain_clause_tokens_are_built_on_first_read(self):
        (decl,) = parse_generic("system s ::=\n  cpu sparc  ;\nend system s.")
        (clause,) = decl.clauses
        assert clause._tokens is None and clause.raw_text == "cpu sparc"
        assert [t.text for t in clause.tokens] == ["cpu", "sparc"]
        assert clause.tokens[1].location.line == 2

    def test_long_plain_clause_failing_at_a_bracket_is_linear(self):
        """The plain pattern runs to the ``(`` and gives up in linear time
        (no possessive or atomic groups: Python 3.9 has neither)."""
        body = ("ab, c:d " * 25_000)[:200_000]
        text = f"process p ::= supports {body}(x); end process p."
        start = time.perf_counter()
        (decl,) = parse_generic(text)
        assert time.perf_counter() - start < 1.0
        assert decl.clauses[0].tokens[-1].text == ")"
