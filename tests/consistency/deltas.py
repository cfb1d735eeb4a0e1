"""Specification deltas shared by the recheck tests.

Hypothesis-drawn internets with everything the taint index and the
candidate rules read (``rich_internet``), single-step deltas over them
and over the corpus, split into owner-local ones (``LOCAL_DELTAS``,
which ``recheck`` patches) and the rest (``NON_LOCAL_DELTAS``, which it
regenerates), ``report_of``: what "the same answer" means, and
``force_indexes``, which builds every lazy index of a fact set.
"""

import dataclasses
import random

from repro.mib.tree import Access
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.frequency import FrequencySpec
from repro.nmsl.specs import (
    WILDCARD,
    DomainSpec,
    ExportSpec,
    ProcessInvocation,
    ProcessSpec,
    ProxySpec,
    QuerySpec,
    Specification,
    SystemSpec,
)
from repro.workloads.generator import (
    REQUESTED_PATH,
    SUPPORTED_GROUPS,
    UNSUPPORTED_PATH,
    SyntheticInternet,
)

TREE = NmslCompiler(CompilerOptions(register_codegen=False)).tree

BRIDGE = "bridge.lan"
EXPORT = ExportSpec(
    variables=("mgmt.mib",),
    to_domain="public",
    access=Access.READ_ONLY,
    frequency=FrequencySpec.at_most_every(300),
)


# ----------------------------------------------------------------------
# Internets with everything the taint index and the candidate rules read.
# ----------------------------------------------------------------------
def _poller(name, target, path=REQUESTED_PATH, period=900.0, params=True):
    return ProcessSpec(
        name=name,
        params=(("Target", "Process"),) if params else (),
        queries=(
            QuerySpec(
                target=target,
                requests=(path,),
                frequency=FrequencySpec.at_most_every(period),
            ),
        ),
    )


def rich_internet(rng: random.Random, n_domains: int, n_systems: int):
    spec = Specification()
    spec.add_process(ProcessSpec(name="stdAgent", supports=("mgmt.mib",)))
    spec.add_process(
        ProcessSpec(
            name="grantAgent",
            supports=("mgmt.mib.system", "mgmt.mib.ip"),
            exports=(
                ExportSpec(
                    variables=("mgmt.mib.ip",),
                    to_domain="public",
                    access=Access.READ_ONLY,
                    frequency=FrequencySpec.at_most_every(300),
                ),
            ),
        )
    )
    spec.add_process(
        ProcessSpec(
            name="bridgeProxy",
            supports=("mgmt.mib",),
            proxies=(ProxySpec(target_system=BRIDGE, protocol="lanbridge"),),
        )
    )
    spec.add_process(_poller("poller", "Target"))
    spec.add_process(_poller("fastPoller", "Target", period=30.0))
    spec.add_process(_poller("egpPoller", "Target", path=UNSUPPORTED_PATH))
    # Literal targets: every instance of a process type, every agent of
    # a domain (the umbrella, so the agents sit in its subdomains).
    spec.add_process(
        _poller("agentWatch", "grantAgent", path="mgmt.mib.ip", params=False)
    )
    spec.add_process(_poller("regionWatch", "region", params=False))
    names = [
        [SyntheticInternet.system_name(d, s) for s in range(n_systems)]
        for d in range(n_domains)
    ]
    for row in names:
        for name in row:
            spec.add_system(
                SystemSpec(
                    name=name,
                    supports=rng.choice(
                        (SUPPORTED_GROUPS, ("mgmt.mib",), ("mgmt.mib.system",))
                    ),
                    processes=_agent_invocations(rng),
                )
            )
    spec.add_system(SystemSpec(name=BRIDGE, supports=SUPPORTED_GROUPS))
    for index, row in enumerate(names):
        members = list(row)
        if index == 0:
            members.append(BRIDGE)
        if index and rng.random() < 0.3:
            members.append(names[0][0])  # one element, two domains
        spec.add_domain(
            DomainSpec(
                name=SyntheticInternet.domain_name(index),
                systems=tuple(members),
                processes=tuple(
                    _application(rng, spec) for _ in range(rng.randint(0, 3))
                ),
                exports=(EXPORT,) if rng.random() < 0.7 else (),
            )
        )
    spec.add_domain(
        DomainSpec(
            name="region",
            subdomains=tuple(
                SyntheticInternet.domain_name(index)
                for index in range(n_domains)
            ),
        )
    )
    return spec


def _agent_invocations(rng):
    return tuple(
        ProcessInvocation(name)
        for name in rng.choice(
            (
                ("stdAgent",),
                ("grantAgent",),
                ("stdAgent", "grantAgent"),
                ("stdAgent", "stdAgent"),
                ("bridgeProxy",),
                (),
            )
        )
    )


def _application(rng, spec):
    kind = rng.choice(
        ("poller", "poller", "fastPoller", "egpPoller", "agentWatch", "regionWatch")
    )
    if kind in ("agentWatch", "regionWatch"):
        return ProcessInvocation(kind)
    target = rng.choice(
        [WILDCARD, "10.0.0.1", *spec.domains, *spec.systems, *spec.systems]
    )
    return ProcessInvocation(kind, (target,))


# ----------------------------------------------------------------------
# Deltas.  Each returns a new revision sharing every untouched entry.
# ----------------------------------------------------------------------
def with_entries(spec, **tables):
    return dataclasses.replace(
        spec,
        **{
            table: {**getattr(spec, table), **entries}
            for table, entries in tables.items()
        },
    )


def _a_domain(rng, spec, needs=lambda domain: True):
    leaves = [d for d in spec.domains.values() if d.systems and needs(d)]
    return rng.choice(leaves) if leaves else None


def retarget(rng, spec, only_systems=False):
    domain = _a_domain(rng, spec, lambda d: any(i.args for i in d.processes))
    if domain is None:
        return spec
    slot = rng.choice([n for n, i in enumerate(domain.processes) if i.args])
    processes = list(domain.processes)
    targets = [*spec.systems, *spec.systems]
    if not only_systems:
        targets += [WILDCARD, *spec.domains]
    processes[slot] = ProcessInvocation(
        processes[slot].process_name, (rng.choice(targets),)
    )
    return with_entries(
        spec,
        domains={
            domain.name: dataclasses.replace(domain, processes=tuple(processes))
        },
    )


def add_invocation(rng, spec):
    domain = _a_domain(rng, spec)
    position = rng.randint(0, len(domain.processes))
    processes = list(domain.processes)
    processes.insert(position, _application(rng, spec))
    return with_entries(
        spec,
        domains={
            domain.name: dataclasses.replace(domain, processes=tuple(processes))
        },
    )


def remove_invocation(rng, spec):
    domain = _a_domain(rng, spec, lambda d: d.processes)
    if domain is None:
        return spec
    processes = list(domain.processes)
    del processes[rng.randrange(len(processes))]
    return with_entries(
        spec,
        domains={
            domain.name: dataclasses.replace(domain, processes=tuple(processes))
        },
    )


def toggle_exports(rng, spec):
    domain = _a_domain(rng, spec)
    return with_entries(
        spec,
        domains={
            domain.name: dataclasses.replace(
                domain, exports=() if domain.exports else (EXPORT,)
            )
        },
    )


def _a_system(rng, spec):
    housed = {name for d in spec.domains.values() for name in d.systems}
    return spec.systems[rng.choice(sorted(housed & spec.systems.keys()))]


def change_supports(rng, spec):
    system = _a_system(rng, spec)
    supports = rng.choice(
        (SUPPORTED_GROUPS, ("mgmt.mib",), ("mgmt.mib.system",), ("mgmt.mib.egp",))
    )
    return with_entries(
        spec,
        systems={system.name: dataclasses.replace(system, supports=supports)},
    )


def change_agents(rng, spec):
    system = _a_system(rng, spec)
    if "bridgeProxy" in spec.processes:
        processes = _agent_invocations(rng)
    else:  # the corpus has one agent type (and CLP(R) no rule for an
        # element without any): run it once or twice
        processes = (ProcessInvocation("stdAgent"),) * rng.choice((1, 2))
    return with_entries(
        spec,
        systems={system.name: dataclasses.replace(system, processes=processes)},
    )


LOCAL_DELTAS = (
    retarget,
    add_invocation,
    remove_invocation,
    toggle_exports,
    change_supports,
    change_agents,
)


def several(rng, spec):
    for delta in rng.sample(LOCAL_DELTAS, k=rng.randint(2, 4)):
        spec = delta(rng, spec)
    return spec


def move_system(rng, spec):
    """Containment: an element leaves one domain for another."""
    source = _a_domain(rng, spec)
    target = rng.choice(
        [d for d in spec.domains.values() if d.systems and d is not source]
    )
    moved = source.systems[0]
    return with_entries(
        spec,
        domains={
            source.name: dataclasses.replace(source, systems=source.systems[1:]),
            target.name: dataclasses.replace(
                target, systems=target.systems + (moved,)
            ),
        },
    )


def change_process(rng, spec):
    poller = spec.processes["poller"]
    query = dataclasses.replace(
        poller.queries[0], frequency=FrequencySpec.at_most_every(120.0)
    )
    return with_entries(
        spec, processes={"poller": dataclasses.replace(poller, queries=(query,))}
    )


def add_system(rng, spec):
    domain = _a_domain(rng, spec)
    name = f"new.{domain.name}.net"
    return with_entries(
        spec,
        systems={
            name: SystemSpec(
                name=name,
                supports=SUPPORTED_GROUPS,
                processes=(ProcessInvocation("stdAgent"),),
            )
        },
        domains={
            domain.name: dataclasses.replace(
                domain, systems=domain.systems + (name,)
            )
        },
    )


def remove_domain(rng, spec):
    domain = _a_domain(rng, spec)
    domains = {k: v for k, v in spec.domains.items() if k != domain.name}
    for name, other in domains.items():
        if domain.name in other.subdomains:
            domains[name] = dataclasses.replace(
                other,
                subdomains=tuple(
                    s for s in other.subdomains if s != domain.name
                ),
            )
    return dataclasses.replace(spec, domains=domains)


def change_extras(rng, spec):
    """Not a table the diff tracks, but one the facts are keyed on:
    rides on an exports toggle so there is a diff to look at."""
    return dataclasses.replace(
        toggle_exports(rng, spec), extras={"note": [rng.random()]}
    )


NON_LOCAL_DELTAS = (
    move_system,
    change_process,
    add_system,
    remove_domain,
    change_extras,
)


def report_of(result):
    """The bytes an operator sees, minus the engine's own statistics (a
    recheck and a check count different things there)."""
    return (
        result.render(),
        dataclasses.replace(result, stats={}).to_json(),
        [p.causes for p in result.inconsistencies],
        result.warnings,
    )


def force_indexes(facts):
    """Build every lazy index; return them by name."""
    spec = facts.specification
    facts.instance_by_id("")
    facts.agents()
    facts.instances_of_process("")
    facts.instances_on_system("")
    facts.proxies_for_system("")
    return {
        "taint": facts.domain_reference_taint(),
        "grantors": facts.permissions_by_grantor(),
        "instance ids": facts._instance_cache,
        "agents": facts._agents_cache,
        "by process": facts._by_process_cache,
        "by system": facts._by_system_cache,
        "proxies": facts._proxy_cache,
        "containment": facts.containment,
        "direct": facts.owners.direct,
        "domains of": [facts.domains_of(i) for i in facts.instances],
        "ranks": [facts.owner_rank("system", name) for name in spec.systems]
        + [facts.owner_rank("domain", name) for name in spec.domains],
    }
