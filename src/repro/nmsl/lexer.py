"""Tokenizer for NMSL specifications.

Token kinds (paper Section 4.1.1: "Tokens are separated by white space or
special character sequences like ``::=`` or ``;``"):

* ``WORD`` — keywords, names and dotted paths (``process``, ``snmpaddr``,
  ``mgmt.mib.ip``, ``wisc-research``, ``4.0.1``).  A word may contain dots,
  hyphens and underscores; a *trailing* dot is split off as ``PERIOD``
  because a period ends a specification (``end type ipAddrTable.``).
* ``STRING`` — double-quoted (``"romano.cs.wisc.edu"``).
* ``NUMBER`` — integer or decimal literal: a word of the exact shape
  ``-?[0-9]+(\\.[0-9]+)?``.  Anything else (``1e5``, ``1_000``, ``nan``,
  ``inf``) is a ``WORD``.
* ``PUNCT`` — ``::=  :=  ;  ,  (  )  :  <=  >=  <  >  =  *  {  }  [  ]  |``.
* ``PERIOD`` — the specification terminator ``.``.

Comments run from ``--`` to end of line.  A token carries only its source
offsets; its line and column are worked out from them the first time
``token.location`` is read, which it is for about one token in six.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import List, Union

from repro.errors import NmslSyntaxError, SourceLocation

WORD = "WORD"
STRING = "STRING"
NUMBER = "NUMBER"
PUNCT = "PUNCT"
PERIOD = "PERIOD"
EOF = "EOF"

#: One more character of a word: a hyphen only when it does not open ``--``.
_WORD_CHAR = r"(?:[A-Za-z0-9_]|-(?!-))"
#: What may follow inside a word; dots only when the word goes on after them.
_WORD_MORE = rf"(?:\.*{_WORD_CHAR})"

#: Blank space and comments, then exactly one token.  The alternatives are
#: tried in the order written; the name of the one that matched is the
#: token kind, except ``BAD``, which is every way of going wrong.
_TOKEN = re.compile(
    rf"""(?:\s+|--[^\n]*)*(?:
      "(?P<STRING>[^"\n]*)"
    | (?P<PUNCT>::=|:=|<=|>=|[;,():<>=*{{}}\[\]|])
    | (?P<PERIOD>\.)
    | (?P<NUMBER>-?[0-9]+(?:\.[0-9]+)?)(?!{_WORD_MORE})
    | (?P<WORD>{_WORD_CHAR}{_WORD_MORE}*)
    | (?P<EOF>\Z)
    | (?P<BAD>.)
    )""",
    re.VERBOSE,
)


class SourceMap:
    """One source text and where its lines start, shared by its tokens."""

    __slots__ = ("text", "filename", "line_starts")

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.line_starts = [0]
        self.line_starts.extend(m.end() for m in re.finditer("\n", text))

    def locate(self, offset: int) -> SourceLocation:
        line = bisect_right(self.line_starts, offset)
        return SourceLocation(
            self.filename, line, offset - self.line_starts[line - 1] + 1
        )


class NmslToken:
    """One lexical token: kind, text and raw-text offsets.

    *location* is a :class:`SourceLocation`, or the :class:`SourceMap`
    that turns ``start`` into one the first time ``location`` is read.
    """

    __slots__ = ("kind", "text", "start", "end", "_where")

    def __init__(
        self,
        kind: str,
        text: str,
        location: Union[SourceLocation, SourceMap],
        start: int = 0,
        end: int = 0,
    ):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end
        self._where = location

    @property
    def location(self) -> SourceLocation:
        where = self._where
        if where.__class__ is SourceMap:
            where = self._where = where.locate(self.start)
        return where

    def _key(self):
        return (self.kind, self.text, self.location, self.start, self.end)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not NmslToken:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"NmslToken(kind={self.kind!r}, text={self.text!r}, "
            f"location={self.location!r}, start={self.start!r}, end={self.end!r})"
        )

    def matches(self, kind: str, text: str | None = None) -> bool:
        if self.kind != kind:
            return False
        return text is None or self.text == text

    def is_word(self, text: str | None = None) -> bool:
        return self.matches(WORD, text)


def tokenize(text: str, filename: str = "<nmsl>") -> List[NmslToken]:
    """Tokenize *text* fully, ending with the EOF token."""
    return scan(SourceMap(text, filename), 0, len(text))


def scan(source: SourceMap, pos: int, endpos: int) -> List[NmslToken]:
    """The tokens of ``source.text[pos:endpos]``, ending with an EOF token
    at *endpos*.  From a token boundary to one, they are exactly the
    tokens :func:`tokenize` gives for that stretch of the whole text."""
    text = source.text
    tokens: List[NmslToken] = []
    append = tokens.append
    for match in _TOKEN.finditer(text, pos, endpos):
        kind = match.lastgroup
        value = match[kind]
        end = match.end()
        if kind == STRING:
            append(NmslToken(STRING, value, source, end - len(value) - 2, end))
        elif kind != "BAD":
            append(NmslToken(kind, value, source, end - len(value), end))
            if kind == EOF:  # left to run, finditer matches \Z a second time
                break
        else:
            if value != '"':
                message = f"unexpected character {value!r}"
            elif text.find("\n", end) != -1:
                message = "newline inside string"
            else:
                message = "unterminated string"
            raise NmslSyntaxError(message, source.locate(end - 1))
    return tokens


def read_token(source: SourceMap, pos: int) -> NmslToken:
    """The one token that starts at or after *pos* (blanks skipped)."""
    match = _TOKEN.match(source.text, pos)
    kind = match.lastgroup
    if kind == "BAD":
        scan(source, pos, len(source.text))  # raises the lexer's error here
    start = match.start(kind) - (kind == STRING)  # a string's opening quote
    return NmslToken(kind, match[kind], source, start, match.end())
