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
from typing import List, Tuple

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


@dataclass
class ConsistencyResult:
    """The outcome of a consistency check."""

    consistent: bool
    inconsistencies: List[Inconsistency] = field(default_factory=list)
    #: A tuple, so a checker can hand the same warnings on from one
    #: result to the next without copying them.
    warnings: Tuple[str, ...] = ()
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.warnings = tuple(self.warnings)  # a tuple is not copied

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
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)

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
            "warnings": list(self.warnings),
            "stats": {
                key: value
                for key, value in self.stats.items()
                if key not in self.VOLATILE_STATS
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)
