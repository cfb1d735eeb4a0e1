"""The typed specification model built by pass 2.

These dataclasses mirror the four specification kinds of paper Section 4.1
plus the whole-specification container.  They are produced from generalized
declarations by the generic actions in :mod:`repro.nmsl.actions` and
consumed by the consistency checker and the configuration generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.asn1.nodes import Asn1Type
from repro.errors import NmslSemanticError, SourceLocation
from repro.mib.tree import Access
from repro.nmsl.frequency import FrequencySpec

#: The wildcard parameter value written ``*`` in the paper (Figure 4.8).
WILDCARD = "*"

ParamValue = Union[str, int, float]


def _cached_fingerprint(spec, compute) -> Tuple:
    """Memoize a declaration's fingerprint tuple on the instance.

    Declaration objects are treated as immutable values once
    fingerprinted: the supported mutation idiom (used throughout the
    tests and the evolution API) replaces the declaration object in the
    specification table via :func:`dataclasses.replace`, which produces
    a fresh object with an empty cache.  The specification diff compares
    declarations by this, so one compared across revisions is summarised
    once.
    """
    got = spec.__dict__.get("_fingerprint_cache")
    if got is None:
        got = compute()
        spec.__dict__["_fingerprint_cache"] = got
    return got


@dataclass
class TypeSpec:
    """A ``type`` specification: named ASN.1 type plus access mode.

    ``access`` of None means "inherited from a containing type" (paper
    Section 4.1.2).
    """

    name: str
    asn1_type: Asn1Type
    access: Optional[Access] = None
    location: SourceLocation = field(default_factory=SourceLocation)

    def fingerprint_tuple(self) -> Tuple:
        """A hashable value-summary of this declaration (see module note)."""
        return _cached_fingerprint(
            self,
            lambda: ("type", self.name, repr(self.asn1_type), self.access),
        )


@dataclass
class QuerySpec:
    """One ``queries`` clause of a process specification.

    ``target`` is either a parameter name of the enclosing process (bound
    at instantiation) or a literal process/domain name.  ``requests`` are
    MIB name paths; ``using`` are selection assignments path := value.

    The paper's full language supports three interaction kinds (Section
    4.1.3): retrievals (``requests``, read access), modifications
    (``modifies``, read-write access) and remote execution (``executes``,
    any access); ``kind`` records which was written.
    """

    target: str
    requests: Tuple[str, ...]
    using: Tuple[Tuple[str, str], ...] = ()
    frequency: FrequencySpec = field(default_factory=FrequencySpec.unconstrained)
    access: Access = Access.READ_ONLY
    kind: str = "requests"  # "requests" | "modifies" | "executes"
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class ProxySpec:
    """A ``proxies`` clause: this process answers for another element.

    Proxies exist because "some network elements cannot respond to
    management queries directly" (paper Section 3.1) — LAN bridges without
    high-level protocols, or protected systems.  ``protocol`` names the
    proxy-side protocol the translation uses (the ``via`` subclause).
    """

    target_system: str
    protocol: str = ""
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class ExportSpec:
    """An ``exports`` clause: permission for a domain to access variables."""

    variables: Tuple[str, ...]
    to_domain: str
    access: Access = Access.READ_ONLY
    frequency: FrequencySpec = field(default_factory=FrequencySpec.unconstrained)
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class ProcessSpec:
    """A ``process`` specification (an abstraction, instantiated later)."""

    name: str
    params: Tuple[Tuple[str, str], ...] = ()  # (param name, type name)
    supports: Tuple[str, ...] = ()
    exports: Tuple[ExportSpec, ...] = ()
    queries: Tuple[QuerySpec, ...] = ()
    proxies: Tuple[ProxySpec, ...] = ()
    location: SourceLocation = field(default_factory=SourceLocation)

    def is_agent(self) -> bool:
        """Agents store data and answer queries (paper footnote 1)."""
        return bool(self.supports)

    def is_application(self) -> bool:
        """Applications initiate queries but store no data."""
        return bool(self.queries) and not self.supports

    def is_proxy(self) -> bool:
        """Proxies answer management queries on behalf of other elements."""
        return bool(self.proxies)

    def proxied_systems(self) -> Tuple[str, ...]:
        return tuple(proxy.target_system for proxy in self.proxies)

    def param_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _type in self.params)

    def fingerprint_tuple(self) -> Tuple:
        return _cached_fingerprint(self, self._fingerprint)

    def _fingerprint(self) -> Tuple:
        return (
            "process",
            self.name,
            self.params,
            tuple(sorted(self.supports)),
            tuple(
                (e.variables, e.to_domain, e.access, e.frequency.as_tuple())
                for e in self.exports
            ),
            tuple(
                (q.target, q.requests, q.using, q.kind, q.access,
                 q.frequency.as_tuple())
                for q in self.queries
            ),
            tuple((p.target_system, p.protocol) for p in self.proxies),
        )


@dataclass
class ProcessInvocation:
    """A process instantiation in a system or domain specification.

    ``args`` holds literal values or :data:`WILDCARD` for values set at
    run time (paper Figure 4.8 uses ``snmpaddr(*, *)``).
    """

    process_name: str
    args: Tuple[ParamValue, ...] = ()
    location: SourceLocation = field(default_factory=SourceLocation)

    def describe(self) -> str:
        if not self.args:
            return self.process_name
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.process_name}({inner})"


@dataclass
class InterfaceSpec:
    """One network interface of a network element (paper Figure 4.5)."""

    name: str
    network: str
    if_type: str = ""
    speed_bps: int = 0
    protocols: Tuple[str, ...] = ()
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class SystemSpec:
    """A ``system`` (network element) specification."""

    name: str
    cpu: str = ""
    interfaces: Tuple[InterfaceSpec, ...] = ()
    opsys: str = ""
    opsys_version: str = ""
    supports: Tuple[str, ...] = ()
    processes: Tuple[ProcessInvocation, ...] = ()
    location: SourceLocation = field(default_factory=SourceLocation)

    def networks(self) -> Tuple[str, ...]:
        return tuple(interface.network for interface in self.interfaces)

    def total_speed_bps(self) -> int:
        return sum(interface.speed_bps for interface in self.interfaces)

    def fingerprint_tuple(self) -> Tuple:
        return _cached_fingerprint(self, self._fingerprint)

    def _fingerprint(self) -> Tuple:
        return (
            "system",
            self.name,
            self.cpu,
            self.opsys,
            self.opsys_version,
            tuple(
                (i.name, i.network, i.if_type, i.speed_bps, i.protocols)
                for i in self.interfaces
            ),
            tuple(sorted(self.supports)),
            tuple((p.process_name, p.args) for p in self.processes),
        )


@dataclass
class DomainSpec:
    """A ``domain`` specification: administrative grouping + permissions."""

    name: str
    systems: Tuple[str, ...] = ()
    subdomains: Tuple[str, ...] = ()
    processes: Tuple[ProcessInvocation, ...] = ()
    exports: Tuple[ExportSpec, ...] = ()
    location: SourceLocation = field(default_factory=SourceLocation)

    def member_names(self) -> Tuple[str, ...]:
        return self.systems + self.subdomains

    def fingerprint_tuple(self) -> Tuple:
        return _cached_fingerprint(self, self._fingerprint)

    def _fingerprint(self) -> Tuple:
        return (
            "domain",
            self.name,
            tuple(sorted(self.systems)),
            tuple(sorted(self.subdomains)),
            tuple((p.process_name, p.args) for p in self.processes),
            tuple(
                (e.variables, e.to_domain, e.access, e.frequency.as_tuple())
                for e in self.exports
            ),
        )


#: The name of the implicit domain every internet exports to.
PUBLIC_DOMAIN = "public"


@dataclass
class Specification:
    """A complete NMSL specification: every declaration, indexed by name.

    ``extras`` holds whole declarations of extension-defined decltypes;
    ``extension_clauses`` holds extension-keyword clauses found inside
    basic declarations, keyed by (decltype, declaration name).
    """

    types: Dict[str, TypeSpec] = field(default_factory=dict)
    processes: Dict[str, ProcessSpec] = field(default_factory=dict)
    systems: Dict[str, SystemSpec] = field(default_factory=dict)
    domains: Dict[str, DomainSpec] = field(default_factory=dict)
    extras: Dict[str, List[object]] = field(default_factory=dict)
    extension_clauses: Dict[Tuple[str, str], List[Tuple[str, Tuple[str, ...]]]] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------------
    # Registration (used by the generic actions).
    # ------------------------------------------------------------------
    def add_type(self, spec: TypeSpec) -> None:
        self._add(self.types, spec.name, spec, "type")

    def add_process(self, spec: ProcessSpec) -> None:
        self._add(self.processes, spec.name, spec, "process")

    def add_system(self, spec: SystemSpec) -> None:
        self._add(self.systems, spec.name, spec, "system")

    def add_domain(self, spec: DomainSpec) -> None:
        self._add(self.domains, spec.name, spec, "domain")

    @staticmethod
    def _add(table: Dict, name: str, spec, kind: str) -> None:
        if name in table:
            raise NmslSemanticError(
                f"duplicate {kind} specification {name!r}", spec.location
            )
        table[name] = spec

    def merged_with(self, other: "Specification") -> "Specification":
        """A new specification combining both (duplicate names rejected)."""
        merged = Specification()
        for source in (self, other):
            for spec in source.types.values():
                merged.add_type(spec)
            for spec in source.processes.values():
                merged.add_process(spec)
            for spec in source.systems.values():
                merged.add_system(spec)
            for spec in source.domains.values():
                merged.add_domain(spec)
        return merged

    def counts(self) -> Dict[str, int]:
        return {
            "types": len(self.types),
            "processes": len(self.processes),
            "systems": len(self.systems),
            "domains": len(self.domains),
        }
