"""The paper's example specifications, verbatim — and at paper scale.

Figures 4.2 (type specifications), 4.4 (process specifications), 4.6
(network element specification) and 4.8 (domain specification), with the
paper's own spelling — ``SEQUENCE of``, parenthesised field lists, quoted
system names, ``*`` invocation arguments and line-wrapped MIB paths.

``PAPER_SPEC_TEXT`` concatenates all four; together they form a closed
internet: the ``wisc-cs`` domain containing ``romano.cs.wisc.edu`` (which
runs the read-only SNMP agent) and an ``snmpaddr`` application instance.
``cs.wisc.edu``, named as a second system in Figure 4.8 but never given
its own figure, is completed minimally here.

:class:`PaperScaleInternet` is
:class:`~repro.workloads.generator.SyntheticInternet` at the target the
paper states for itself — "on the order of 100,000 networks (and
gateways), 100,000 to a million hosts, and 10,000 administrative
domains".  :class:`PaperScaleParameters` only changes four defaults:
10,000 domains, umbrella domains of 100, and reference locality — 70%
of poller targets within eight domains of the client, the rest on the
Zipf-distributed hub domains — instead of every poller targeting the
next domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.workloads.generator import InternetParameters, SyntheticInternet

FIG_42_TYPE_SPECS = """
type ipAddrTable ::=
    SEQUENCE of IpAddrEntry;
    access ReadOnly;
end type ipAddrTable.

type IpAddrEntry ::=
    SEQUENCE (
        ipAdEntAddr IpAddress,
        ipAdEntIfIndex INTEGER,
        ipAdEntNetMask IpAddress,
        ipAdEntBcastAddr INTEGER
    );
end type IpAddrEntry.
"""

FIG_44_PROCESS_SPECS = """
process snmpdReadOnly ::=
    supports mgmt.mib; -- entire MIB subtree

    exports mgmt.mib to "public"
        access ReadOnly
        frequency >= 5 minutes;
end process snmpdReadOnly.

process snmpaddr(
        SysAddr: Process; Dest: IpAddress) ::=
    queries SysAddr
        requests
            mgmt.mib.ip.ipAddrTable.IpAddrEntry
        using
            mgmt.mib.ip.ipAddrTable.
                IpAddrEntry.ipAdEntAddr := Dest
        frequency infrequent;
end process snmpaddr.
"""

FIG_46_SYSTEM_SPEC = """
system "romano.cs.wisc.edu" ::=
    cpu sparc;
    interface ie0 net wisc-research
        type ethernet-csmacd
        speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports
        mgmt.mib.system, mgmt.mib.at,
        mgmt.mib.interfaces,
        mgmt.mib.ip, mgmt.mib.icmp,
        mgmt.mib.tcp, mgmt.mib.udp;
    process snmpdReadOnly;
end system "romano.cs.wisc.edu".
"""

#: Figure 4.8 also names a second system; the paper never shows its
#: specification, so a minimal one is provided.
CS_WISC_EDU_SYSTEM_SPEC = """
system "cs.wisc.edu" ::=
    cpu sparc;
    interface le0 net wisc-research
        type ethernet-csmacd
        speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports
        mgmt.mib.system, mgmt.mib.at,
        mgmt.mib.interfaces,
        mgmt.mib.ip, mgmt.mib.icmp,
        mgmt.mib.tcp, mgmt.mib.udp;
    process snmpdReadOnly;
end system "cs.wisc.edu".
"""

FIG_48_DOMAIN_SPEC = """
domain wisc-cs ::=
    system romano.cs.wisc.edu;
    system cs.wisc.edu;
    process snmpaddr(*, *);
    exports mgmt.mib to "public"
        access ReadOnly
        frequency >= 5 minutes;
end domain wisc-cs.
"""

#: The paper's figures in one compilable text.
PAPER_SPEC_TEXT = (
    FIG_42_TYPE_SPECS
    + FIG_44_PROCESS_SPECS
    + FIG_46_SYSTEM_SPEC
    + CS_WISC_EDU_SYSTEM_SPEC
    + FIG_48_DOMAIN_SPEC
)


# ----------------------------------------------------------------------
# Paper scale: the Section 3.1 numbers.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PaperScaleParameters(InternetParameters):
    """The synthetic internet's knobs at the paper's own target: 10,000
    administrative domains of 10 network elements each (100,000
    systems), with reference locality and umbrella domains."""

    n_domains: int = 10_000
    locality: float = 0.7
    locality_span: int = 8
    umbrella_fanout: int = 100


class PaperScaleInternet(SyntheticInternet):
    """A 10,000-domain / 100,000-system internet, streamed and shared."""

    def __init__(self, parameters: Optional[PaperScaleParameters] = None):
        super().__init__(parameters or PaperScaleParameters())
