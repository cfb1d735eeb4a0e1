"""Inconsistency reports.

"If an inconsistency is proved, it is reported to the system administrator
... the immediate causes for inconsistency are listed" (paper Sections 3.2
and 4.2).  Each :class:`Inconsistency` names the offending reference and
the near-miss causes — which candidate permissions exist and why each one
fails to cover the reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from typing import (
    Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.consistency.relations import Reference


class InconsistencyKind(Enum):
    """Why a reference lacks a corresponding permission."""

    #: No candidate server instance exists for the query target.
    NO_SERVER = "no-server"
    #: The server's process type does not support the requested data.
    UNSUPPORTED_BY_PROCESS = "unsupported-by-process"
    #: The network element does not support the requested data.
    UNSUPPORTED_BY_ELEMENT = "unsupported-by-element"
    #: No permission reaches the client's domain at all.
    MISSING_PERMISSION = "missing-permission"
    #: A permission exists but its access mode is too weak.
    ACCESS_EXCEEDED = "access-exceeded"
    #: A permission exists but the reference may query too often.
    FREQUENCY_CONFLICT = "frequency-conflict"
    #: A process instantiation conflicts with its network element.
    INSTANTIATION_CONFLICT = "instantiation-conflict"


@dataclass
class Inconsistency:
    """One proved inconsistency with its immediate causes."""

    kind: InconsistencyKind
    message: str
    reference: Reference = None  # type: ignore[assignment]
    causes: Tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"[{self.kind.value}] {self.message}"]
        if self.reference is not None:
            lines.append(f"  reference: {self.reference.describe()}")
            if self.reference.origin:
                lines.append(f"  origin:    {self.reference.origin}")
        for cause in self.causes:
            lines.append(f"  cause:     {cause}")
        return "\n".join(lines)


class Warnings(Sequence[str]):
    """A result's warnings, read as strings: plain ones and records
    (:class:`~repro.consistency.causes.ClippedView`) worded only when
    read — ``len`` and truth word nothing, iteration and slicing what
    they read.  Equal to a :class:`Warnings` or tuple of the same texts
    in order (records against records by field, unworded).  Immutable,
    so a checker hands one on from result to result uncopied."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable = ()) -> None:
        self._items = tuple(items)

    @classmethod
    def concat(cls, *parts: Iterable) -> "Warnings":
        """The items of *parts* in order, records left unworded."""
        return cls(
            item
            for part in parts
            for item in (part._items if part.__class__ is cls else part)
        )

    def pieces(
        self, sep: str, quote: Optional[Callable[[str], str]] = None
    ) -> Iterator[str]:
        """Strings that concatenate to the warnings joined by *sep*, each
        quoted by *quote* if given; records are worded a run at a time
        (:meth:`ClippedView.pieces`)."""
        parts: List[Iterable[str]] = []
        for kind, run in groupby(self._items, type):
            if parts:
                parts.append((sep,))
            if kind is str:
                run = run if quote is None else map(quote, run)
                parts.append((sep.join(run),))
            else:
                parts.append(kind.pieces(tuple(run), sep, quote))
        return chain.from_iterable(parts)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[str]:
        return map(str, self._items)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[str, Tuple[str, ...]]:
        if isinstance(index, slice):
            return tuple(map(str, self._items[index]))
        return str(self._items[index])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Warnings:
            other = other._items
        elif not isinstance(other, tuple):
            return NotImplemented
        # Records compare to records by field, to strings by their text.
        return self._items == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Warnings({tuple(self)!r})"


@dataclass
class ConsistencyResult:
    """The outcome of a consistency check."""

    consistent: bool
    inconsistencies: List[Inconsistency] = field(default_factory=list)
    #: Any iterable of warnings is held as :class:`Warnings`; a
    #: :class:`Warnings` is held as it is, not copied.
    warnings: Warnings = ()  # type: ignore[assignment]
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.warnings.__class__ is not Warnings:
            self.warnings = Warnings(self.warnings)

    def render(self) -> str:
        if self.consistent and not self.warnings:
            return "specification is consistent"
        lines: List[str] = []
        if self.consistent:
            lines.append("specification is consistent (with warnings)")
        else:
            lines.append(
                f"specification is INCONSISTENT "
                f"({len(self.inconsistencies)} problem(s))"
            )
        for item in self.inconsistencies:
            lines.append(item.render())
        text = "\n".join(lines)
        if not self.warnings:
            return text
        sep = "\nwarning: "
        return "".join(chain((text, sep), self.warnings.pieces(sep)))

    def kinds(self) -> List[InconsistencyKind]:
        return [item.kind for item in self.inconsistencies]

    #: Stats that legitimately vary between two checks of the same
    #: specification (timings, worker counts) — everything else must be
    #: a pure function of the specification.
    VOLATILE_STATS = ("seconds", "jobs")

    def to_json(self) -> str:
        """Canonical JSON for byte-level comparison of two checks.

        Two checks of the same specification must serialize to the same
        bytes regardless of engine internals, shard count or worker
        scheduling, so the volatile stats (:data:`VOLATILE_STATS`) are
        dropped and all keys are emitted sorted.
        """
        payload = {
            "consistent": self.consistent,
            "inconsistencies": [
                {
                    "kind": item.kind.value,
                    "message": item.message,
                    "reference": (
                        None
                        if item.reference is None
                        else item.reference.describe()
                    ),
                    "origin": (
                        None
                        if item.reference is None
                        else item.reference.origin
                    ),
                    "causes": list(item.causes),
                }
                for item in self.inconsistencies
            ],
            "warnings": [],
            "stats": {
                key: value
                for key, value in self.stats.items()
                if key not in self.VOLATILE_STATS
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if not self.warnings:
            return text
        # "warnings" sorts last, so its array ends the text: written here
        # with the encoder json.dumps uses for a string, not through its
        # indenting encoder, which is pure Python.
        tail = '"warnings": []\n}'
        assert text.endswith(tail)
        return "".join(
            chain(
                (text[: -len(tail)], '"warnings": [\n    '),
                self.warnings.pieces(",\n    ", encode_basestring_ascii),
                ("\n  ]\n}",),
            )
        )
