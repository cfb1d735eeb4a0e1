"""Test-side oracle: the token-list pass-1 parser, verbatim.

This is the parser ``repro.nmsl.generic`` shipped before pass 1 read its
tokens from a cursor over the text: it lexes the whole text with
:func:`repro.nmsl.lexer.tokenize` first, then walks the list by index.
Everything below the imports is the old module's parser unchanged, with
its own clause and declaration classes, kept only so
``test_parser_differential.py`` can compare the production parser
against it declaration by declaration and error by error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import NmslSyntaxError, SourceLocation
from repro.nmsl.lexer import EOF, PERIOD, PUNCT, STRING, WORD, NmslToken, tokenize

_OPENERS = frozenset("({[")
_CLOSERS = frozenset(")}]")


@dataclass
class GenericClause:
    """One clause: its tokens (``;`` excluded) and exact source text."""

    tokens: List[NmslToken]
    raw_text: str
    location: SourceLocation


@dataclass
class Declaration:
    """One specification in generalized form."""

    decltype: str
    name: str
    params: List[List[NmslToken]] = field(default_factory=list)
    clauses: List[GenericClause] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)


class GenericParser:
    """Recursive-descent parser for the Figure 6.1 grammar.

    The token list ends with ``EOF`` and no method steps past it, so the
    hot loops (clauses, parameter lists) walk it by index unchecked.
    """

    def __init__(self, text: str, filename: str = "<nmsl>"):
        self._text = text
        self._tokens = tokenize(text, filename)
        self._index = 0

    def _next(self) -> NmslToken:
        token = self._tokens[self._index]
        if token.kind != EOF:
            self._index += 1
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
        return self._tokens[self._index].kind == EOF

    def parse_declarations(self) -> List[Declaration]:
        declarations = []
        while not self.at_end():
            declarations.append(self.parse_declaration())
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
        tokens = self._tokens
        index = self._index
        if not tokens[index].matches(PUNCT, "("):
            return []
        groups: List[List[NmslToken]] = []
        current: List[NmslToken] = []
        depth = 0
        while True:
            index += 1
            token = tokens[index]
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
        self._index = index + 1
        if current or groups:
            groups.append(current)
        return groups

    def _parse_clauses(self) -> List[GenericClause]:
        """Clauses up to the closing ``end``: each is the token run up to
        the next ``;`` at bracket depth 0."""
        tokens, source = self._tokens, self._text
        index = self._index
        clauses: List[GenericClause] = []
        while True:
            first = tokens[index]
            if first.kind == EOF:
                raise NmslSyntaxError(
                    "specification not terminated by 'end'", first.location
                )
            if first.kind == WORD and first.text == "end":
                self._index = index
                return clauses
            start = index
            depth = 0
            while True:
                token = tokens[index]
                kind = token.kind
                if kind == PUNCT:
                    text = token.text
                    if text == ";" and depth == 0:
                        break
                    if text in _OPENERS:
                        depth += 1
                    elif text in _CLOSERS:
                        depth -= 1
                        if depth < 0:
                            raise NmslSyntaxError(
                                f"unbalanced {text!r} in clause", token.location
                            )
                elif kind == EOF:
                    raise NmslSyntaxError(
                        "clause not terminated by ';'", token.location
                    )
                index += 1
            if index == start:
                raise NmslSyntaxError("empty clause", first.location)
            raw = source[first.start : tokens[index - 1].end]
            clauses.append(GenericClause(tokens[start:index], raw, first.location))
            index += 1


def parse_generic(text: str, filename: str = "<nmsl>") -> List[Declaration]:
    """Parse *text* into generalized declarations (pass 1)."""
    return GenericParser(text, filename).parse_declarations()
