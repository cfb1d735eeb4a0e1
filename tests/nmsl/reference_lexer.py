"""Test-side oracle: the character-cursor NMSL tokenizer, verbatim.

This is the lexer ``repro.nmsl.lexer`` shipped until the one-pattern
rewrite; everything below the imports is the old module unchanged (its
own frozen-dataclass token included), kept only so the differential
tests in ``test_lexer_differential.py`` can compare the production lexer
against it token by token.  The production lexer departs from it in two
documented ways, both pinned by regression tests there:

* words Python happens to parse as numbers (``nan``, ``inf``, ``1e5``,
  ``1_000``) are ``NUMBER`` here and ``WORD`` in production;
* a ``PERIOD`` split off a word reports the word's line and column
  here, its own in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import NmslSyntaxError, SourceLocation

WORD = "WORD"
STRING = "STRING"
NUMBER = "NUMBER"
PUNCT = "PUNCT"
PERIOD = "PERIOD"
EOF = "EOF"

_MULTI_PUNCT = ("::=", ":=", "<=", ">=")
_SINGLE_PUNCT = ";,():<>=*{}[]|"
_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


@dataclass(frozen=True)
class NmslToken:
    """One lexical token with location and raw-text offsets."""

    kind: str
    text: str
    location: SourceLocation
    start: int = 0
    end: int = 0

    def matches(self, kind: str, text: str | None = None) -> bool:
        if self.kind != kind:
            return False
        return text is None or self.text == text

    def is_word(self, text: str | None = None) -> bool:
        return self.matches(WORD, text)


class NmslLexer:
    """Streaming tokenizer over NMSL source text."""

    def __init__(self, text: str, filename: str = "<nmsl>"):
        self.text = text
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._col = 1

    def _location(self) -> SourceLocation:
        return SourceLocation(self._filename, self._line, self._col)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self.text):
                return
            if self.text[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _skip_blank(self) -> None:
        while self._pos < len(self.text):
            ch = self._peek()
            if ch.isspace():
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> Iterator[NmslToken]:
        while True:
            self._skip_blank()
            location = self._location()
            start = self._pos
            ch = self._peek()
            if not ch:
                yield NmslToken(EOF, "", location, start, start)
                return
            if ch == '"':
                yield self._lex_string(location, start)
                continue
            matched = False
            for punct in _MULTI_PUNCT:
                if self.text.startswith(punct, self._pos):
                    self._advance(len(punct))
                    yield NmslToken(PUNCT, punct, location, start, self._pos)
                    matched = True
                    break
            if matched:
                continue
            if ch == ".":
                self._advance()
                yield NmslToken(PERIOD, ".", location, start, self._pos)
                continue
            if ch in _SINGLE_PUNCT:
                self._advance()
                yield NmslToken(PUNCT, ch, location, start, self._pos)
                continue
            if ch in _WORD_CHARS:
                yield from self._lex_wordish(location, start)
                continue
            raise NmslSyntaxError(f"unexpected character {ch!r}", location)

    def _lex_string(self, location: SourceLocation, start: int) -> NmslToken:
        self._advance()  # opening quote
        content_start = self._pos
        while self._peek() and self._peek() != '"':
            if self._peek() == "\n":
                raise NmslSyntaxError("newline inside string", location)
            self._advance()
        if not self._peek():
            raise NmslSyntaxError("unterminated string", location)
        text = self.text[content_start : self._pos]
        self._advance()  # closing quote
        return NmslToken(STRING, text, location, start, self._pos)

    def _lex_wordish(self, location: SourceLocation, start: int) -> Iterator[NmslToken]:
        while self._peek() in _WORD_CHARS and self._peek():
            # "--" starts a comment even adjacent to a word.
            if self._peek() == "-" and self._peek(1) == "-":
                break
            self._advance()
        raw = self.text[start : self._pos]
        # Split trailing dots off: they terminate specifications.
        trailing = 0
        while raw.endswith("."):
            raw = raw[:-1]
            trailing += 1
        if not raw:
            # The word was entirely dots; re-emit them as PERIODs.
            for index in range(trailing):
                yield NmslToken(PERIOD, ".", location, start + index, start + index + 1)
            return
        end = start + len(raw)
        yield NmslToken(self._classify(raw), raw, location, start, end)
        for index in range(trailing):
            yield NmslToken(PERIOD, ".", location, end + index, end + index + 1)

    @staticmethod
    def _classify(raw: str) -> str:
        try:
            int(raw)
            return NUMBER
        except ValueError:
            pass
        try:
            float(raw)
            return NUMBER
        except ValueError:
            pass
        return WORD


def tokenize(text: str, filename: str = "<nmsl>") -> List[NmslToken]:
    """Tokenize *text* fully, ending with the EOF token."""
    return list(NmslLexer(text, filename).tokens())
