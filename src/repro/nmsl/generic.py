"""Pass 1: the generalized NMSL grammar of paper Figure 6.1.

The first compiler pass parses *any* specification matching the generic
shape — ``decltype declname [params] ::= clauses end decltype declname .``
— without attempting semantic analysis.  "Any group of tokens will be
accepted by the parsing pass, provided that the group of tokens matches the
basic format of the NMSL grammar"; differentiating the specifications and
clauses is left to pass 2 (the action tables in :mod:`repro.nmsl.actions`).

A clause is the token run up to the next ``;`` at bracket depth 0, so
ASN.1 bodies (with their own parentheses/braces) and parameterised process
invocations pass through untouched; the raw source span of every clause is
preserved for actions that re-parse it (the ASN.1 body of a type spec).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import NmslSyntaxError, SourceLocation
from repro.nmsl.lexer import EOF, PERIOD, PUNCT, STRING, WORD, NmslToken, SourceMap
from repro.nmsl.lexer import read_token, scan, tokenize

_OPENERS = frozenset("({[")
_CLOSERS = frozenset(")}]")
_STRUCTURAL = _OPENERS | _CLOSERS | {";"}
_BLANKS = " \t\n\r\f\v"
#: The rest of a plain clause, through its ``;``: words, numbers, strings,
#: ``, : < > = * |`` and ASCII blanks — no brackets, no comment, nothing
#: the lexer refuses.  Each repeat of the group starts with a character
#: the class leaves out, so the match is linear even when it fails.
_PLAIN_CHAR = rf"[A-Za-z0-9_.,:<>=*|{_BLANKS}]"
_PLAIN = re.compile(rf'{_PLAIN_CHAR}*(?:(?:"[^"\n]*"|-(?!-)){_PLAIN_CHAR}*)*;')


class GenericClause:
    """One clause: its tokens (``;`` excluded) and exact source text.

    A plain clause comes without its tokens; they are lexed from the
    source on first read (pass 2 reads those of one clause per text).
    """

    __slots__ = ("first", "raw_text", "_source", "_tokens")

    def __init__(self, first: NmslToken, raw_text: str, source: SourceMap, tokens=None):
        self.first = first
        self.raw_text = raw_text
        self._source = source
        self._tokens = tokens

    @property
    def tokens(self) -> List[NmslToken]:
        if self._tokens is None:
            first = self.first
            rest = scan(self._source, first.end, first.start + len(self.raw_text))
            self._tokens = [first] + rest[:-1]
        return self._tokens

    @property
    def location(self) -> SourceLocation:
        return self.first.location

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GenericClause:
            return NotImplemented
        return (self.tokens, self.raw_text) == (other.tokens, other.raw_text)

    def first_keyword(self) -> Optional[str]:
        return self.first.text if self.first.kind == WORD else None


@dataclass
class Declaration:
    """One specification in generalized form."""

    decltype: str
    name: str
    params: List[List[NmslToken]] = field(default_factory=list)
    clauses: List[GenericClause] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)

    def clauses_starting(self, keyword: str) -> List[GenericClause]:
        return [
            clause for clause in self.clauses if clause.first_keyword() == keyword
        ]


class GenericParser:
    """Recursive-descent parser for the Figure 6.1 grammar.

    Tokens are read one at a time from a cursor over the text, and a plain
    clause is taken whole by one match of :data:`_PLAIN`.  Lexical errors
    still come first: the cursor meets the first bad character before any
    later one, and a syntax error re-lexes the whole text before it rises.
    """

    def __init__(self, text: str, filename: str = "<nmsl>"):
        self._source = SourceMap(text, filename)
        self.tokens_built = 1  # for the pass-1 span
        self._token = read_token(self._source, 0)

    # ------------------------------------------------------------------
    # Token helpers.
    # ------------------------------------------------------------------
    def _next(self) -> NmslToken:
        token = self._token
        if token.kind != EOF:
            self.tokens_built += 1
            self._token = read_token(self._source, token.end)
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> NmslToken:
        token = self._next()
        if not token.matches(kind, text):
            wanted = text if text is not None else kind
            raise NmslSyntaxError(
                f"expected {wanted!r}, found {token.text or token.kind!r}",
                token.location,
            )
        return token

    def at_end(self) -> bool:
        return self._token.kind == EOF

    # ------------------------------------------------------------------
    # Productions.
    # ------------------------------------------------------------------
    def parse_declarations(self) -> List[Declaration]:
        declarations = []
        try:
            while not self.at_end():
                declarations.append(self.parse_declaration())
        except NmslSyntaxError:
            tokenize(self._source.text, self._source.filename)
            raise
        return declarations

    def parse_declaration(self) -> Declaration:
        decltype_token = self._expect(WORD)
        name_token = self._next()
        if name_token.kind not in (WORD, STRING):
            raise NmslSyntaxError(
                f"expected a declaration name, found {name_token.text!r}",
                name_token.location,
            )
        params = self._parse_declparams()
        self._expect(PUNCT, "::=")
        clauses = self._parse_clauses()
        self._expect(WORD, "end")
        end_type = self._expect(WORD)
        if end_type.text != decltype_token.text:
            raise NmslSyntaxError(
                f"'end {end_type.text}' does not match "
                f"'{decltype_token.text} {name_token.text}'",
                end_type.location,
            )
        end_name = self._next()
        if end_name.kind not in (WORD, STRING):
            raise NmslSyntaxError(
                f"expected name after 'end {end_type.text}'", end_name.location
            )
        if end_name.text != name_token.text:
            raise NmslSyntaxError(
                f"'end {end_type.text} {end_name.text}' does not match "
                f"declaration of {name_token.text!r}",
                end_name.location,
            )
        self._expect(PERIOD)
        return Declaration(
            decltype=decltype_token.text,
            name=name_token.text,
            params=params,
            clauses=clauses,
            location=decltype_token.location,
        )

    def _parse_declparams(self) -> List[List[NmslToken]]:
        if not self._token.matches(PUNCT, "("):
            return []
        self._next()
        groups: List[List[NmslToken]] = []
        current: List[NmslToken] = []
        depth = 0
        while True:
            token = self._next()
            kind, text = token.kind, token.text
            if kind == EOF:
                raise NmslSyntaxError(
                    "unterminated parameter list", token.location
                )
            if kind == PUNCT:
                if text in _OPENERS:
                    depth += 1
                elif text in _CLOSERS:
                    if text == ")" and depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and text in (",", ";"):
                    groups.append(current)
                    current = []
                    continue
            current.append(token)
        if current or groups:
            groups.append(current)
        return groups

    def _parse_clauses(self) -> List[GenericClause]:
        """Clauses up to the closing ``end``: each is the token run up to
        the next ``;`` at bracket depth 0."""
        source = self._source
        text = source.text
        clauses: List[GenericClause] = []
        while True:
            first = self._token
            if first.kind == EOF:
                raise NmslSyntaxError(
                    "specification not terminated by 'end'", first.location
                )
            if first.kind == WORD and first.text == "end":
                return clauses
            plain = (
                first.kind != PUNCT or first.text not in _STRUCTURAL
            ) and _PLAIN.match(text, first.end)
            if plain:
                raw = text[first.start : plain.end() - 1].rstrip(_BLANKS)
                clauses.append(GenericClause(first, raw, source))
                self.tokens_built += 1
                self._token = read_token(source, plain.end())
                continue
            tokens: List[NmslToken] = []
            depth = 0
            while True:
                token = self._token
                kind = token.kind
                if kind == PUNCT:
                    punct = token.text
                    if punct == ";" and depth == 0:
                        break
                    if punct in _OPENERS:
                        depth += 1
                    elif punct in _CLOSERS:
                        depth -= 1
                        if depth < 0:
                            raise NmslSyntaxError(
                                f"unbalanced {punct!r} in clause", token.location
                            )
                elif kind == EOF:
                    raise NmslSyntaxError(
                        "clause not terminated by ';'", token.location
                    )
                tokens.append(self._next())
            if not tokens:
                raise NmslSyntaxError("empty clause", first.location)
            raw = text[first.start : tokens[-1].end]
            clauses.append(GenericClause(first, raw, source, tokens))
            self._next()


def parse_generic(text: str, filename: str = "<nmsl>") -> List[Declaration]:
    """Parse *text* into generalized declarations (pass 1)."""
    return GenericParser(text, filename).parse_declarations()
