"""The ``BartsSnmpd`` output type: snmpd.conf-style agent configuration.

For every network element that instantiates an agent process, emit a
configuration file an SNMP daemon could load: MIB views (from the
``supports`` clauses, intersected with what the element itself supports),
community grants per permitted domain (from process and containing-domain
``exports``), and a minimum inter-request interval per community (the
frequency clause).

The simulated agents in :mod:`repro.snmp.agent` consume exactly this
format, which closes the paper's loop: specification -> configuration ->
running manager behaviour.
"""

from __future__ import annotations

from typing import List, Optional

from repro.consistency.facts import FactSet, InstanceId
from repro.nmsl.actions import OutputContext, OutputRegistry
from repro.nmsl.outputs import _facts
from repro.nmsl.specs import SystemSpec

SNMPD_TAG = "BartsSnmpd"


def snmpd_system_action(context: OutputContext, spec: SystemSpec) -> Optional[str]:
    facts = _facts(context)
    agents = [
        instance
        for instance in facts.instances_on_system(spec.name)
        if context.specification.processes[instance.process_name].is_agent()
    ]
    if not agents:
        return None
    lines: List[str] = [
        f"# snmpd.conf for {spec.name} -- generated by NMSL, do not edit",
        f"sysName {spec.name}",
    ]
    if spec.opsys:
        lines.append(f"sysDescr {spec.opsys} {spec.opsys_version}".rstrip())
    element_view = facts.system_supports.get(spec.name)
    for agent in agents:
        lines.append(f"agent {agent.process_name} id {agent.id}")
        process = context.specification.processes[agent.process_name]
        for proxy in process.proxies:
            lines.append(
                f"proxy-for {proxy.target_system} via "
                f"{proxy.protocol or 'direct'}"
            )
        view_name = f"view-{agent.process_name}"
        for path in _effective_paths(
            facts.process_supports[agent.process_name], element_view, context.options
        ):
            lines.append(f"view {view_name} include {path}")
        for permission in _permissions_for(facts, agent):
            interval = int(permission.frequency.min_period)
            lines.append(
                f"community {permission.grantee_domain} {view_name} "
                f"{permission.access.value} min-interval {interval}"
            )
        # Exports govern access from OUTSIDE the domain (Section 4.1.5):
        # members of the agent's own immediate domains are implicitly
        # trusted, so prescribe a community per direct domain.
        for domain_name in facts.direct_domains(agent):
            lines.append(
                f"community {domain_name} {view_name} "
                f"ReadWrite min-interval 0"
            )
    return "\n".join(lines)


def _effective_paths(agent_view, element_view, options) -> List[str]:
    """Sorted paths of what the agent serves on this element: its own view
    clipped to the element's, when the element declares one.

    Thousands of systems share a handful of distinct (agent view, element
    view) pairs and every intersection builds a fresh, quadratic
    :class:`MibView`, so the result is kept in the shared OutputContext
    options.  The key is the two path tuples themselves, not the FactSet
    they came from, so no entry can be stale.
    """
    if element_view is None or element_view.is_empty():
        return sorted(agent_view.paths())
    memo = options.setdefault("snmpd-effective-paths", {})
    key = (agent_view.paths(), element_view.paths())
    paths = memo.get(key)
    if paths is None:
        paths = memo[key] = sorted(agent_view.intersection(element_view).paths())
    return paths


def _permissions_for(facts: FactSet, agent: InstanceId):
    """The grants that reach *agent*, in the order they sit in
    ``facts.permissions``: its own, then its domains' exports in the
    order the domains were declared — read off the fact set's grantor
    index, which an owner-scoped patch keeps current."""
    groups = facts.permissions_by_grantor()
    yield from groups.get(f"instance:{agent.id}", ())
    declared = facts.owner_ranks()[1].__getitem__
    for domain in sorted(facts.domains_of(agent), key=declared):
        yield from groups.get(f"domain:{domain}", ())


def register_snmpd_outputs(registry: OutputRegistry) -> None:
    registry.register(SNMPD_TAG, "system", snmpd_system_action)
