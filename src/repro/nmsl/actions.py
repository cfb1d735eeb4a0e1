"""Pass-2 action machinery: keyword tables, segmentation, output registry.

Paper Section 6: "Associated with each production ... is a list of actions
... executed in the second pass of the compiler."  Actions split in two:

* **generic actions** (tagged ``generic`` in the paper) perform semantic
  checks and bookkeeping — here they live in :mod:`repro.nmsl.semantics`
  as the per-decltype builders, driven by the keyword tables below;
* **output-specific actions** are tagged with an output type
  (``consistency``, ``BartsSnmpd``, ...) and only run when the compiler is
  invoked for that output type.

The extension mechanism (Section 6.3) *prepends* entries to these tables:
a prepended keyword entry can add a clause keyword or override which
decltypes accept it; a prepended output action overrides the action with
the same (tag, decltype) key while leaving generic processing untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NmslSemanticError
from repro.nmsl.generic import GenericClause
from repro.nmsl.lexer import NUMBER, PUNCT, STRING, WORD, NmslToken

# ----------------------------------------------------------------------
# Keyword table.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KeywordEntry:
    """One clause keyword: where it is valid and how to segment around it.

    ``starts_clause`` distinguishes keywords that may begin a clause
    (``exports``, ``interface``) from continuation keywords that only
    appear inside one (``to``, ``access`` in an exports clause, ``net`` in
    an interface clause).
    """

    keyword: str
    decltypes: Tuple[str, ...]
    starts_clause: bool = True

    def valid_in(self, decltype: str) -> bool:
        return decltype in self.decltypes


#: The basic-language keyword table (paper Figures 4.1, 4.3, 4.5, 4.7).
BASE_KEYWORDS: Tuple[KeywordEntry, ...] = (
    # type specifications
    KeywordEntry("access", ("type", "process", "domain"), starts_clause=True),
    # process specifications
    KeywordEntry("supports", ("process", "system")),
    KeywordEntry("exports", ("process", "domain")),
    KeywordEntry("queries", ("process",)),
    KeywordEntry("requests", ("process",), starts_clause=False),
    KeywordEntry("modifies", ("process",), starts_clause=False),
    KeywordEntry("executes", ("process",), starts_clause=False),
    KeywordEntry("proxies", ("process",)),
    KeywordEntry("via", ("process",), starts_clause=False),
    KeywordEntry("using", ("process",), starts_clause=False),
    KeywordEntry("frequency", ("process", "domain"), starts_clause=False),
    KeywordEntry("to", ("process", "domain"), starts_clause=False),
    # network element specifications
    KeywordEntry("cpu", ("system",)),
    KeywordEntry("interface", ("system",)),
    KeywordEntry("net", ("system",), starts_clause=False),
    KeywordEntry("protocols", ("system",), starts_clause=False),
    KeywordEntry("type", ("system",), starts_clause=False),
    KeywordEntry("speed", ("system",), starts_clause=False),
    KeywordEntry("opsys", ("system",)),
    KeywordEntry("version", ("system",), starts_clause=False),
    KeywordEntry("process", ("system", "domain")),
    # domain specifications
    KeywordEntry("system", ("domain",)),
    KeywordEntry("domain", ("domain",)),
)

#: Declaration types of the basic language.
BASE_DECLTYPES: Tuple[str, ...] = ("type", "process", "system", "domain")


class KeywordTable:
    """Ordered keyword entries; extensions prepend (first match wins)."""

    def __init__(self, entries: Iterable[KeywordEntry] = BASE_KEYWORDS):
        #: Every entry, first match first.
        self.entries: List[KeywordEntry] = []
        #: (keyword, decltype) -> the first entry in order that matches.
        self._by_key: Dict[Tuple[str, str], KeywordEntry] = {}
        for entry in reversed(tuple(entries)):
            self.prepend(entry)

    def prepend(self, entry: KeywordEntry) -> None:
        self.entries.insert(0, entry)
        for decltype in entry.decltypes:
            self._by_key[entry.keyword, decltype] = entry

    def lookup(self, keyword: str, decltype: str) -> Optional[KeywordEntry]:
        return self._by_key.get((keyword, decltype))

    def is_keyword(self, keyword: str, decltype: str) -> bool:
        return self.lookup(keyword, decltype) is not None

    def keywords_for(self, decltype: str) -> Tuple[str, ...]:
        seen = []
        for entry in self.entries:
            if entry.valid_in(decltype) and entry.keyword not in seen:
                seen.append(entry.keyword)
        return tuple(seen)


# ----------------------------------------------------------------------
# Subclause segmentation.
# ----------------------------------------------------------------------


@dataclass
class Subclause:
    """``keyword args...`` — one keyword group inside a clause."""

    keyword: str
    tokens: List[NmslToken]

    def texts(self) -> List[str]:
        return [token.text for token in self.tokens]

    def words(self) -> List[str]:
        """Argument texts with punctuation dropped (commas etc.)."""
        return [
            token.text
            for token in self.tokens
            if token.kind in (WORD, STRING, NUMBER)
        ]


def segment_clause(
    clause: GenericClause,
    decltype: str,
    table: KeywordTable,
) -> List[Subclause]:
    """Split a clause's tokens into keyword-led subclauses.

    The first token must be a keyword valid in *decltype*; subsequent
    tokens open a new subclause whenever they are a continuation keyword of
    this decltype *outside* any parentheses.
    """
    tokens = clause.tokens
    first = tokens[0]
    entry = table.lookup(first.text, decltype) if first.kind == WORD else None
    if entry is None or not entry.starts_clause:
        known = ", ".join(
            keyword
            for keyword in table.keywords_for(decltype)
            if (found := table.lookup(keyword, decltype)) and found.starts_clause
        )
        raise NmslSemanticError(
            f"clause does not start with a keyword valid in a {decltype} "
            f"specification (found {first.text!r}; expected one of: {known})",
            first.location,
        )
    subclauses: List[Subclause] = [Subclause(first.text, [])]
    depth = 0
    for token in tokens[1:]:
        if token.kind == PUNCT and token.text in "([{":
            depth += 1
        elif token.kind == PUNCT and token.text in ")]}":
            depth -= 1
        if (
            depth == 0
            and token.kind == WORD
            and table.is_keyword(token.text, decltype)
        ):
            subclauses.append(Subclause(token.text, []))
            continue
        subclauses[-1].tokens.append(token)
    return subclauses


# ----------------------------------------------------------------------
# Output-specific action registry.
# ----------------------------------------------------------------------

#: An output action renders one typed spec into output text chunks.
#: Signature: action(context, spec) -> str | None.
OutputAction = Callable[["OutputContext", object], Optional[str]]


@dataclass
class OutputContext:
    """What an output action may consult while rendering."""

    specification: object  # repro.nmsl.specs.Specification
    options: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class OutputEntry:
    tag: str
    decltype: str
    action: OutputAction


class OutputRegistry:
    """Ordered (tag, decltype) → action table; extensions prepend.

    Matching is first-entry-wins, which yields the paper's override
    semantics: an extension action with the same tag and decltype shadows
    the basic one, while other tags keep their basic actions.
    """

    def __init__(self):
        self._entries: List[OutputEntry] = []

    def register(self, tag: str, decltype: str, action: OutputAction) -> None:
        """Append a basic-language action."""
        self._entries.append(OutputEntry(tag, decltype, action))

    def prepend(self, tag: str, decltype: str, action: OutputAction) -> None:
        """Prepend an extension action (overrides same tag+decltype)."""
        self._entries.insert(0, OutputEntry(tag, decltype, action))

    def actions(self, tag: str) -> Dict[str, OutputAction]:
        """decltype -> *tag*'s action, the first entry winning."""
        return {
            entry.decltype: entry.action
            for entry in reversed(self._entries)
            if entry.tag == tag
        }

    def tags(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for entry in self._entries:
            if entry.tag not in seen:
                seen.append(entry.tag)
        return tuple(seen)

    def copy(self) -> "OutputRegistry":
        duplicate = OutputRegistry()
        duplicate._entries = list(self._entries)
        return duplicate
