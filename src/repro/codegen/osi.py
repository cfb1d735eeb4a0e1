"""The ``osi`` output type: an OSI-organisational-model rendering.

The OSI management architecture (paper Section 2.1) models management as
nested domains communicating through *ports*, with internal features
hidden.  This generator renders each NMSL domain as an OSI management
domain: its member elements, the ports it opens (one per exporting agent
process), and the object classes visible through each port.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nmsl.actions import OutputContext, OutputRegistry
from repro.nmsl.outputs import _facts
from repro.nmsl.specs import DomainSpec

OSI_TAG = "osi"


def osi_domain_action(context: OutputContext, spec: DomainSpec) -> Optional[str]:
    facts = _facts(context)
    lines: List[str] = [f"managementDomain {spec.name} {{"]
    for subdomain in spec.subdomains:
        lines.append(f"  subDomain {subdomain};")
    for system_name in spec.systems:
        lines.append(f"  managedSystem {system_name};")
    port_number = 0
    for permission in facts.permissions:
        # An instance grant carries the domains around its grantor.
        owned = permission.grantor == f"domain:{spec.name}" or (
            permission.grantor.startswith("instance:")
            and spec.name in permission.grantor_domains
        )
        if not owned:
            continue
        port_number += 1
        lines.append(f"  port p{port_number} {{")
        lines.append(f"    peerDomain {permission.grantee_domain};")
        for path in permission.variables:
            lines.append(f"    visibleObjectClass {path};")
        lines.append(f"    accessMode {permission.access.value};")
        lines.append(
            f"    minInterOperationTime {permission.frequency.min_period:g};"
        )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def register_osi_outputs(registry: OutputRegistry) -> None:
    registry.register(OSI_TAG, "domain", osi_domain_action)
