"""The consistency relations of paper Figure 4.9 as Python values.

The checker reasons about *references* (a client may query some data with
some access mode and frequency) and *permissions* (a grantor allows a
grantee domain to access some data with some mode and frequency).  Both
carry the MIB view they touch and the frequency interval.  Whether a
permission *covers* a reference is the reduction rule, written once as
:data:`repro.consistency.causes.DIMENSIONS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import SourceLocation
from repro.mib.tree import Access
from repro.nmsl.frequency import FrequencySpec

#: Partial order of access modes for the reduction rules: a granted mode
#: covers a requested mode iff Access.permits holds; this table only lists
#: the atoms used when rendering CLP(R) text.
ACCESS_ORDER = ("none", "readonly", "writeonly", "readwrite", "any")


def access_atom(access: Access) -> str:
    """The CLP(R) atom for an access mode."""
    return access.value.lower()


def access_from_atom(atom: str) -> Access:
    return Access.parse(atom)


@dataclass(frozen=True)
class Reference:
    """``ref_eq``: *client* may reference *server*'s data.

    ``client`` / ``server`` are instance or domain identifiers (strings,
    see :class:`~repro.consistency.facts.InstanceId`).  ``variables`` are
    the requested MIB paths; ``view`` their resolved coverage.
    """

    client: str
    client_domains: Tuple[str, ...]
    server: str
    variables: Tuple[str, ...]
    access: Access
    frequency: FrequencySpec
    origin: str = ""  # human-readable source ("process snmpaddr queries ...")
    #: where the ``queries`` clause was written; excluded from equality so
    #: value-identical references stay interchangeable across re-parses.
    location: SourceLocation = field(
        default_factory=SourceLocation, compare=False
    )

    def describe(self) -> str:
        variables = ", ".join(self.variables)
        return (
            f"{self.client} references {variables} at {self.server} "
            f"for {self.access.value} ({self.frequency.describe()})"
        )


@dataclass(frozen=True)
class Permission:
    """``perm_eq``: *grantor* permits *grantee_domain* to access data."""

    grantor: str
    grantor_domains: Tuple[str, ...]
    grantee_domain: str
    variables: Tuple[str, ...]
    access: Access
    frequency: FrequencySpec
    origin: str = ""
    #: where the ``exports`` clause was written; excluded from equality so
    #: value-identical permissions stay interchangeable across re-parses.
    location: SourceLocation = field(
        default_factory=SourceLocation, compare=False
    )

    def describe(self) -> str:
        variables = ", ".join(self.variables)
        return (
            f"{self.grantor} permits {self.grantee_domain} to access "
            f"{variables} for {self.access.value} ({self.frequency.describe()})"
        )
