"""The synthetic internet generator for the Section 3.1 scale evaluation.

The paper's stated target: "very large networks, on the order of 100,000
networks (and gateways), 100,000 to a million hosts, and 10,000
administrative domains."  :class:`SyntheticInternet` builds parameterised
internets up to that size as NMSL text (``text``, or streamed one
declaration at a time by ``iter_text``/``write_text``) and as the typed
model built directly (``specification``, structure-shared so 100,000
elements stay cheap).

Both hold ``n_domains`` administrative domains, each containing
``systems_per_domain`` network elements running a shared read-only agent
and exporting the MIB to the public domain, plus
``applications_per_domain`` pollers querying an element of another
domain, so every check crosses an administrative boundary.  A
``locality`` share of targets falls within ``locality_span`` domains
of the client (each step half as likely as the last); the rest go to
``hub_count`` Zipf-weighted hub domains.  The defaults make every target
the *next* domain; :class:`repro.workloads.paper.PaperScaleInternet` is
this generator at the paper's sizes and locality.

Deliberate inconsistencies can be injected by kind to verify detection at
scale: ``missing_permission`` (a domain that exports nothing),
``frequency_conflict`` (a poller allowed to query every 30 seconds against
a 5-minute export), and ``unsupported_data`` (a poller requesting EGP
variables that no element supports).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.nmsl.frequency import FrequencySpec
from repro.nmsl.specs import (
    DomainSpec,
    ExportSpec,
    InterfaceSpec,
    ProcessInvocation,
    ProcessSpec,
    QuerySpec,
    Specification,
    SystemSpec,
)
from repro.mib.tree import Access

#: The MIB groups every synthetic element supports (EGP excluded, as on
#: the paper's romano.cs.wisc.edu).
SUPPORTED_GROUPS = (
    "mgmt.mib.system",
    "mgmt.mib.interfaces",
    "mgmt.mib.ip",
    "mgmt.mib.icmp",
    "mgmt.mib.tcp",
    "mgmt.mib.udp",
)

REQUESTED_PATH = "mgmt.mib.ip.ipAddrTable.IpAddrEntry"
UNSUPPORTED_PATH = "mgmt.mib.egp"


@dataclass(frozen=True)
class InternetParameters:
    """Size, locality and fault-injection knobs for a synthetic internet."""

    n_domains: int = 10
    systems_per_domain: int = 10
    applications_per_domain: int = 2
    export_period_s: float = 300.0
    query_period_s: float = 900.0
    #: Fraction of references that stay in the local neighbourhood.
    locality: float = 1.0
    #: Width of the neighbourhood (domain-index distance); within it,
    #: distances fall off geometrically (halving per step).
    locality_span: int = 1
    #: Skew of hub popularity for the non-local references; weight of
    #: hub *k* is ``1 / (k + 1) ** zipf_s``.
    zipf_s: float = 1.1
    #: How many low-index domains act as hubs.
    hub_count: int = 256
    #: Domains (by index) that export nothing -> missing permissions.
    silent_domains: Tuple[int, ...] = ()
    #: Applications (by global index) that query too fast.
    fast_pollers: Tuple[int, ...] = ()
    #: Applications (by global index) that request unsupported EGP data.
    egp_pollers: Tuple[int, ...] = ()
    #: When > 0, group base domains under umbrella domains of this fanout
    #: (one per group, plus one root over the umbrellas) — deeper
    #: containment chains exercising the transitive rules.  Umbrellas
    #: grant nothing, so verdicts are unchanged.
    umbrella_fanout: int = 0
    seed: int = 1989

    @property
    def n_systems(self) -> int:
        return self.n_domains * self.systems_per_domain

    @property
    def n_applications(self) -> int:
        return self.n_domains * self.applications_per_domain


class SyntheticInternet:
    """Deterministic synthetic internet builder."""

    def __init__(self, parameters: InternetParameters):
        self.parameters = parameters
        self._target_rows: Optional[List[Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # Naming scheme.
    # ------------------------------------------------------------------
    @staticmethod
    def domain_name(index: int) -> str:
        return f"dom{index:05d}"

    @staticmethod
    def system_name(domain_index: int, system_index: int) -> str:
        return f"host{system_index:05d}.dom{domain_index:05d}.net"

    # ------------------------------------------------------------------
    # Locality: who references whom.
    # ------------------------------------------------------------------
    def target_domain(self, domain_index: int, app_index: int) -> int:
        """The (deterministic) target domain of one poller."""
        return self._targets()[domain_index][app_index]

    def _targets(self) -> List[Tuple[int, ...]]:
        if self._target_rows is not None:
            return self._target_rows
        p = self.parameters
        rng = random.Random(p.seed)
        hubs = max(1, min(p.hub_count, p.n_domains))
        cumulative: List[float] = []
        total = 0.0
        for rank in range(hubs):
            total += 1.0 / (rank + 1) ** p.zipf_s
            cumulative.append(total)
        rows: List[Tuple[int, ...]] = []
        for domain_index in range(p.n_domains):
            row = []
            for _app in range(p.applications_per_domain):
                if rng.random() < p.locality:
                    # Geometric fall-off inside the neighbourhood:
                    # distance d+1 is half as likely as distance d.
                    draw = max(rng.random(), 1e-12)
                    distance = 1 + min(
                        int(-math.log2(draw)), max(p.locality_span - 1, 0)
                    )
                    target = (domain_index + distance) % p.n_domains
                else:
                    draw = rng.random() * cumulative[-1]
                    target = bisect.bisect_left(cumulative, draw)
                if target == domain_index:
                    target = (domain_index + 1) % p.n_domains
                row.append(target)
            rows.append(tuple(row))
        self._target_rows = rows
        return rows

    def _target_for(self, domain_index: int, app_index: int) -> str:
        target = self.target_domain(domain_index, app_index)
        system_index = app_index % self.parameters.systems_per_domain
        return self.system_name(target, system_index)

    def _process_name_for(self, domain_index: int, app_index: int) -> str:
        p = self.parameters
        global_index = domain_index * p.applications_per_domain + app_index
        if global_index in p.fast_pollers:
            return "fastPoller"
        if global_index in p.egp_pollers:
            return "egpPoller"
        return "poller"

    # ------------------------------------------------------------------
    # NMSL text.
    # ------------------------------------------------------------------
    def iter_text(self) -> Iterator[str]:
        """Yield the NMSL source one declaration at a time.

        ``"\\n".join(net.iter_text())`` equals :meth:`text`, but a
        consumer that writes chunks as they arrive (a file, a pipe into
        the compiler) never holds more than one declaration in memory.
        """
        p = self.parameters
        yield self._process_texts()
        for domain_index in range(p.n_domains):
            for system_index in range(p.systems_per_domain):
                yield self._system_text(domain_index, system_index)
        for domain_index in range(p.n_domains):
            yield self._domain_text(domain_index)
        for name, members in self._umbrellas():
            lines = [f"domain {name} ::="]
            lines.extend(f"    domain {member};" for member in members)
            lines.append(f"end domain {name}.\n")
            yield "\n".join(lines)

    def text(self) -> str:
        return "\n".join(self.iter_text())

    def write_text(self, path) -> int:
        """Stream the source to *path*; returns bytes written."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for chunk in self.iter_text():
                written += handle.write(chunk)
                written += handle.write("\n")
        return written

    def _umbrellas(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """(name, subdomains) of each umbrella domain, the root last."""
        p = self.parameters
        if p.umbrella_fanout <= 0 or p.n_domains <= 0:
            return []
        names = [self.domain_name(index) for index in range(p.n_domains)]
        starts = range(0, p.n_domains, p.umbrella_fanout)
        regions = [
            (f"region{index:04d}", tuple(names[start:start + p.umbrella_fanout]))
            for index, start in enumerate(starts)
        ]
        return regions + [("root", tuple(name for name, _ in regions))]

    def _process_texts(self) -> str:
        p = self.parameters
        query_minutes = p.query_period_s / 60.0
        # The agent exports nothing itself: permissions come from the
        # domain exports, so a "silent" domain really grants nothing.
        return f"""
process stdAgent ::=
    supports mgmt.mib;
end process stdAgent.

process poller(Target: Process) ::=
    queries Target
        requests {REQUESTED_PATH}
        frequency >= {query_minutes:g} minutes;
end process poller.

process fastPoller(Target: Process) ::=
    queries Target
        requests {REQUESTED_PATH}
        frequency = 30 seconds;
end process fastPoller.

process egpPoller(Target: Process) ::=
    queries Target
        requests {UNSUPPORTED_PATH}
        frequency >= {query_minutes:g} minutes;
end process egpPoller.
"""

    def _system_text(self, domain_index: int, system_index: int) -> str:
        name = self.system_name(domain_index, system_index)
        supports = ",\n        ".join(SUPPORTED_GROUPS)
        return f"""
system "{name}" ::=
    cpu sparc;
    interface ie0 net net{domain_index:05d}
        type ethernet-csmacd
        speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports
        {supports};
    process stdAgent;
end system "{name}".
"""

    def _domain_text(self, domain_index: int) -> str:
        p = self.parameters
        name = self.domain_name(domain_index)
        lines = [f"domain {name} ::="]
        for system_index in range(p.systems_per_domain):
            lines.append(
                f"    system {self.system_name(domain_index, system_index)};"
            )
        for app_index in range(p.applications_per_domain):
            process = self._process_name_for(domain_index, app_index)
            target = self._target_for(domain_index, app_index)
            lines.append(f"    process {process}({target});")
        if domain_index not in p.silent_domains:
            minutes = p.export_period_s / 60.0
            lines.append(
                f'    exports mgmt.mib to "public"\n'
                f"        access ReadOnly\n"
                f"        frequency >= {minutes:g} minutes;"
            )
        lines.append(f"end domain {name}.")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Direct typed-model construction, structure-shared.
    # ------------------------------------------------------------------
    def specification(self) -> Specification:
        p = self.parameters
        spec = Specification()
        export = ExportSpec(
            variables=("mgmt.mib",),
            to_domain="public",
            access=Access.READ_ONLY,
            frequency=FrequencySpec.at_most_every(p.export_period_s),
        )
        spec.add_process(ProcessSpec(name="stdAgent", supports=("mgmt.mib",)))
        spec.add_process(self._poller("poller", REQUESTED_PATH,
                                      FrequencySpec.at_most_every(p.query_period_s)))
        spec.add_process(self._poller("fastPoller", REQUESTED_PATH,
                                      FrequencySpec.exactly_every(30)))
        spec.add_process(self._poller("egpPoller", UNSUPPORTED_PATH,
                                      FrequencySpec.at_most_every(p.query_period_s)))
        agent_invocations = (ProcessInvocation("stdAgent"),)
        exports_tuple = (export,)
        for domain_index in range(p.n_domains):
            # One interface object per domain, shared by its elements.
            interfaces = (
                InterfaceSpec(
                    name="ie0",
                    network=f"net{domain_index:05d}",
                    if_type="ethernet-csmacd",
                    speed_bps=10_000_000,
                ),
            )
            for system_index in range(p.systems_per_domain):
                spec.add_system(
                    SystemSpec(
                        name=self.system_name(domain_index, system_index),
                        cpu="sparc",
                        interfaces=interfaces,
                        opsys="SunOS",
                        opsys_version="4.0.1",
                        supports=SUPPORTED_GROUPS,
                        processes=agent_invocations,
                    )
                )
        for domain_index in range(p.n_domains):
            invocations = tuple(
                ProcessInvocation(
                    self._process_name_for(domain_index, app_index),
                    (self._target_for(domain_index, app_index),),
                )
                for app_index in range(p.applications_per_domain)
            )
            spec.add_domain(
                DomainSpec(
                    name=self.domain_name(domain_index),
                    systems=tuple(
                        self.system_name(domain_index, system_index)
                        for system_index in range(p.systems_per_domain)
                    ),
                    processes=invocations,
                    exports=(
                        () if domain_index in p.silent_domains
                        else exports_tuple
                    ),
                )
            )
        for name, members in self._umbrellas():
            spec.add_domain(DomainSpec(name=name, subdomains=members))
        return spec

    @staticmethod
    def _poller(name: str, path: str, frequency: FrequencySpec) -> ProcessSpec:
        return ProcessSpec(
            name=name,
            params=(("Target", "Process"),),
            queries=(
                QuerySpec(target="Target", requests=(path,), frequency=frequency),
            ),
        )

    def expected_inconsistent_references(self) -> int:
        """How many references the checker should flag, by construction.

        A reference fails when its poller is a fast/EGP poller, or when
        its target domain is silent (exports nothing — element agents
        also export nothing here, so the permission must come from the
        domain).
        """
        p = self.parameters
        silent = set(p.silent_domains)
        bad = set(p.fast_pollers) | set(p.egp_pollers)
        return sum(
            domain_index * p.applications_per_domain + app_index in bad
            or self.target_domain(domain_index, app_index) in silent
            for domain_index in range(p.n_domains)
            for app_index in range(p.applications_per_domain)
        )
