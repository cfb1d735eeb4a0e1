"""The owner-scoped fact patch against a cold generation.

``ConsistencyChecker.recheck`` patches the cached fact set in place when
a delta is *owner-local* (changed system and domain declarations,
containment and the process table untouched) and regenerates otherwise.
Both must be indistinguishable from checking the new revision from
scratch, so for random deltas over the 50-spec differential corpus and
over Hypothesis-drawn internets that also have what the corpus lacks
(instance grants, proxies, literal process and domain targets, ``*``
targets, an umbrella domain, an element in two domains) this asserts:

* the patched :class:`FactSet` equals a cold-generated one field by
  field — lists in order, every lazy index, whether it was built before
  the patch (and updated) or after it (from the patched lists);
* ``recheck`` equals a fresh ``check`` on verdicts, causes, warnings and
  the bytes of ``render()`` and ``to_json()`` — and, on the corpus, the
  scan engine and the CLP(R) path;
* every delta that is not owner-local takes the regenerate path, and
  agrees too.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.oracles import ORACLES, failing_clients
from repro.consistency.evolution import diff_specifications
from repro.consistency.facts import IncrementalFactGenerator
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

from tests.corpus import CORPUS_SIZE, corpus

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
def _replace(spec, **tables):
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
    return _replace(
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
    return _replace(
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
    return _replace(
        spec,
        domains={
            domain.name: dataclasses.replace(domain, processes=tuple(processes))
        },
    )


def toggle_exports(rng, spec):
    domain = _a_domain(rng, spec)
    return _replace(
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
    return _replace(
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
    return _replace(
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
    return _replace(
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
    return _replace(
        spec, processes={"poller": dataclasses.replace(poller, queries=(query,))}
    )


def add_system(rng, spec):
    domain = _a_domain(rng, spec)
    name = f"new.{domain.name}.net"
    return _replace(
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


# ----------------------------------------------------------------------
# What "the same" means.
# ----------------------------------------------------------------------
def _force(facts):
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


def assert_same_facts(patched, specification):
    cold = IncrementalFactGenerator(TREE).generate(specification)
    assert patched.specification is specification
    for name in (
        "instances",
        "permissions",
        "references",
        "instance_supports",
        "system_supports",
        "warnings",
    ):
        assert getattr(patched, name) == getattr(cold, name), name
    assert (
        patched.expansion["declarations"] == cold.expansion["declarations"]
    )
    forced, expected = _force(patched), _force(cold)
    for name in expected:
        assert forced[name] == expected[name], name


def _report(result):
    """The bytes an operator sees, minus the engine's own statistics (a
    recheck and a check count different things there)."""
    return (
        result.render(),
        dataclasses.replace(result, stats={}).to_json(),
        [p.causes for p in result.inconsistencies],
        result.warnings,
    )


def check_local_delta(before, after, warm):
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    if warm:  # the indexes exist, so the patch has to update them
        _force(checker.facts)
    result = checker.recheck(after)
    fresh = ConsistencyChecker(after, TREE).check()
    changed = len(diff_specifications(before, after))
    if not changed:  # the draw replaced a value by itself
        assert _report(result) == _report(fresh)
        return result, fresh
    assert result.stats["patched"], "an owner-local delta must be patched"
    assert result.stats["facts_expanded"] == changed
    assert (
        result.stats["rechecked"] + result.stats["reused"]
        == result.stats["references"]
    )
    assert _report(result) == _report(fresh)
    assert_same_facts(checker.checked_facts, after)
    # And the state it leaves is one a plain check() trusts.
    assert _report(checker.check()) == _report(fresh)
    return result, fresh


# ----------------------------------------------------------------------
# The 50-spec corpus: every delta kind, all three engines.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "index", range(CORPUS_SIZE), ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)]
)
def test_corpus_patch_equals_cold_generation(index):
    before = SyntheticInternet(corpus()[index]).specification()
    rng = random.Random(index)
    for delta in (*LOCAL_DELTAS, several):
        after = delta(rng, before)
        result, _fresh = check_local_delta(before, after, warm=index % 2 == 0)
        scan = ORACLES["scan"](after, TREE)
        assert _report(result) == _report(scan)
        before = after
    # CLP(R) grounds literal system targets only (the scope note of
    # test_differential), and is slow: for every fifth spec, one more
    # chain that stays inside that, compared at its end.
    if index % 5:
        return
    before = SyntheticInternet(corpus()[index]).specification()
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    for delta in (toggle_exports, change_supports, change_agents):
        after = retarget(rng, delta(rng, before), only_systems=True)
        result = checker.recheck(after)
        assert result.stats["patched"] == bool(
            len(diff_specifications(before, after))
        )
        before = after
    clpr = ORACLES["clpr"](before, TREE)
    assert result.consistent == clpr.consistent
    assert failing_clients(result) == failing_clients(clpr)


@pytest.mark.parametrize("index", range(0, CORPUS_SIZE, 5))
@pytest.mark.parametrize("delta", NON_LOCAL_DELTAS, ids=lambda d: d.__name__)
def test_corpus_non_local_delta_regenerates(index, delta):
    before = SyntheticInternet(corpus()[index]).specification()
    after = delta(random.Random(index), before)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    result = checker.recheck(after)
    assert not result.stats["patched"]
    assert result.stats["facts_expanded"] == result.stats["facts_declarations"]
    assert _report(result) == _report(ConsistencyChecker(after, TREE).check())
    assert_same_facts(checker.checked_facts, after)


# ----------------------------------------------------------------------
# Hypothesis-built internets: chains of deltas on one warm checker.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_domains=st.integers(2, 4),
    n_systems=st.integers(1, 3),
    steps=st.lists(
        st.sampled_from((*LOCAL_DELTAS, several)), min_size=1, max_size=4
    ),
    warm=st.booleans(),
)
def test_patch_equals_cold_generation(seed, n_domains, n_systems, steps, warm):
    rng = random.Random(seed)
    before = rich_internet(rng, n_domains, n_systems)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    for delta in steps:
        after = delta(rng, before)
        if not len(diff_specifications(before, after)):
            continue  # the draw replaced a value by itself
        if warm:
            _force(checker.checked_facts)
        result = checker.recheck(after)
        assert result.stats["patched"]
        fresh = ConsistencyChecker(after, TREE).check()
        assert _report(result) == _report(fresh)
        assert_same_facts(checker.checked_facts, after)
        before = after


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    delta=st.sampled_from(NON_LOCAL_DELTAS),
    then=st.sampled_from(LOCAL_DELTAS),
)
def test_non_local_delta_regenerates_then_patches(seed, delta, then):
    rng = random.Random(seed)
    before = rich_internet(rng, 3, 2)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    after = delta(rng, before)
    result = checker.recheck(after)
    assert not result.stats["patched"]
    assert _report(result) == _report(ConsistencyChecker(after, TREE).check())
    assert_same_facts(checker.checked_facts, after)
    # The regenerated fact set is as patchable as a cold one.
    last = then(rng, after)
    if len(diff_specifications(after, last)):
        result = checker.recheck(last)
        assert result.stats["patched"]
        assert _report(result) == _report(
            ConsistencyChecker(last, TREE).check()
        )
        assert_same_facts(checker.checked_facts, last)


@pytest.mark.parametrize("housed", [False, True], ids=["homeless", "twin"])
def test_patch_declines_what_it_cannot_locate(housed):
    """Two owner-local-looking deltas the patch declines: an element no
    domain lists (no domain to taint through), and a system that shares
    its name with a domain (the two count instance ordinals together,
    so neither expands on its own)."""
    base = rich_internet(random.Random(7), 2, 2)
    home = base.domains[SyntheticInternet.domain_name(1)]
    name = home.name if housed else "stray.net"
    element = SystemSpec(
        name=name,
        supports=SUPPORTED_GROUPS,
        processes=(ProcessInvocation("stdAgent"),),
    )
    before = _replace(base, systems={name: element})
    if housed:
        before = _replace(
            before,
            domains={
                home.name: dataclasses.replace(
                    home,
                    systems=home.systems + (name,),
                    processes=home.processes + (ProcessInvocation("stdAgent"),),
                )
            },
        )
    after = _replace(
        before,
        systems={
            name: dataclasses.replace(element, supports=("mgmt.mib.system",))
        },
    )
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    result = checker.recheck(after)
    assert not result.stats["patched"]
    assert _report(result) == _report(ConsistencyChecker(after, TREE).check())
    assert_same_facts(checker.checked_facts, after)
