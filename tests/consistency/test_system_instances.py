"""``FactSet.instances_on_system`` on owners that try to fool it.

The lookup keeps no table: it numbers a system's ``processes`` as a
generation numbers them and resolves each id through
``instance_by_id``.  On each specification below it must equal a scan
of the instance list, on a cold fact set and after ``patch_owners`` of
either owner, and the checker's verdict must be the ``scan`` and
``clpr`` oracles':

* a system and a domain share a name and instantiate the same process,
  so the domain's ordinals count on from the system's;
* a system invokes a process nobody declared (the linker reports it;
  a typed model can still carry it);
* a system's ``processes`` are replaced in place through a ``Table``
  mutator, and the checker rechecks the same specification object.
"""

import dataclasses

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.facts import FactGenerator, IncrementalFactGenerator
from repro.consistency.oracles import ORACLES, failing_clients
from repro.nmsl.specs import ProcessInvocation
from repro.workloads.generator import InternetParameters, SyntheticInternet
from tests.consistency.deltas import TREE, force_indexes, report_of

TWIN = "dom00002"
HOST = "host00001.dom00000.net"


def _internet():
    return SyntheticInternet(
        InternetParameters(
            n_domains=4, systems_per_domain=2, applications_per_domain=2,
            silent_domains=(1,), fast_pollers=(2,),
        )
    ).specification()


def _with(spec, table, declaration):
    """*spec* with *declaration* in *table*, every table order kept."""
    entries = dict(getattr(spec, table))
    entries[declaration.name] = declaration
    return dataclasses.replace(spec, **{table: entries})


def shared_name():
    """A system named after domain ``dom00002``, homed in ``dom00003``,
    running the domain's pollers twice beside an agent."""
    spec = _internet()
    domain = spec.domains[TWIN]
    agent = spec.systems[HOST].processes
    twin = dataclasses.replace(
        spec.systems[HOST],
        name=TWIN,
        processes=(*domain.processes, *agent, *domain.processes),
    )
    spec = _with(spec, "systems", twin)
    home = spec.domains["dom00003"]
    return _with(
        spec, "domains",
        dataclasses.replace(home, systems=(*home.systems, TWIN)),
    )


def undeclared_process():
    """A system whose agent runs twice, between invocations of a
    process that is not declared."""
    spec = _internet()
    ghost = ProcessInvocation("ghostAgent")
    (agent,) = spec.systems[HOST].processes
    return _with(
        spec, "systems",
        dataclasses.replace(
            spec.systems[HOST], processes=(ghost, agent, ghost, agent, ghost)
        ),
    )


SPECS = {"shared name": shared_name, "undeclared process": undeclared_process}


def scan(facts, name):
    return [
        i for i in facts.instances
        if i.owner_kind == "system" and i.owner == name
    ]


def assert_lookups_scan(facts):
    for name in facts.specification.systems:
        assert facts.instances_on_system(name) == scan(facts, name), name
    assert facts.instances_on_system("no.such.system") == []


def assert_oracles_agree(spec):
    result = ConsistencyChecker(spec, TREE).check()
    for name in ("scan", "clpr"):
        answer = ORACLES[name](spec, TREE)
        assert answer.consistent == result.consistent, name
        assert failing_clients(answer) == failing_clients(result), name
    return result


def patched(spec, kind, name, edit):
    """A cold fact set of *spec* with owner *name* patched to
    ``edit(owner)``, and the specification it now describes."""
    facts = IncrementalFactGenerator(TREE).generate(spec)
    table = "domains" if kind == "domain" else "systems"
    after = _with(spec, table, edit(getattr(spec, table)[name]))
    facts.patch_owners(FactGenerator(after, TREE), [(kind, name)])
    return facts, after


def _supports_less(system):
    # Its invocations stay as they were: a shared name's domain numbers
    # on from them, which is why the checker never patches a shared name.
    return dataclasses.replace(system, supports=system.supports[:-1])


def _exports_nothing(domain):
    return dataclasses.replace(domain, exports=())


@pytest.mark.parametrize("make", SPECS.values(), ids=list(SPECS))
def test_a_cold_lookup_is_the_scan_and_the_oracles_agree(make):
    spec = make()
    facts = IncrementalFactGenerator(TREE).generate(spec)
    assert_lookups_scan(facts)
    assert_oracles_agree(spec)


def test_a_shared_name_numbers_the_domain_on_from_the_system():
    facts = IncrementalFactGenerator(TREE).generate(shared_name())
    pollers = [i for i in facts.instances if i.process_name == "poller"]
    assert [str(i) for i in pollers if i.owner == TWIN] == [
        f"poller@{TWIN}#{n}" for n in range(1, 7)
    ]
    assert [i.owner_kind for i in pollers if i.owner == TWIN] == (
        ["system"] * 4 + ["domain"] * 2
    )
    assert len(facts.instances_on_system(TWIN)) == 5


def test_an_undeclared_process_takes_no_ordinal():
    facts = IncrementalFactGenerator(TREE).generate(undeclared_process())
    assert [str(i) for i in facts.instances_on_system(HOST)] == [
        f"stdAgent@{HOST}#1", f"stdAgent@{HOST}#2",
    ]


@pytest.mark.parametrize(
    "make, kind, name, edit",
    [
        (shared_name, "system", TWIN, _supports_less),
        (shared_name, "domain", TWIN, _exports_nothing),
        (undeclared_process, "system", HOST, _supports_less),
        (undeclared_process, "domain", "dom00000", _exports_nothing),
    ],
    ids=[
        "shared name-system", "shared name-domain",
        "undeclared process-system", "undeclared process-domain",
    ],
)
def test_a_patched_lookup_is_the_scan_and_a_cold_generation(
    make, kind, name, edit
):
    facts, after = patched(make(), kind, name, edit)
    cold = IncrementalFactGenerator(TREE).generate(after)
    for field in (
        "instances", "permissions", "references", "process_supports",
        "system_supports",
    ):
        assert getattr(facts, field) == getattr(cold, field), field
    assert force_indexes(facts) == force_indexes(cold)
    assert_lookups_scan(facts)
    assert_oracles_agree(after)


@pytest.mark.parametrize("mutator", ["__setitem__", "update"])
def test_processes_replaced_in_place_are_read_after_the_recheck(mutator):
    spec = _internet()
    checker = ConsistencyChecker(spec, TREE)
    checker.check()
    before = checker.checked_facts.instances_on_system(HOST)
    assert [i.process_name for i in before] == ["stdAgent"]
    system = spec.systems[HOST]
    (agent,) = system.processes
    edited = dataclasses.replace(
        system, processes=(agent, ProcessInvocation("ghostAgent"), agent)
    )
    if mutator == "update":
        spec.systems.update({HOST: edited})
    else:
        spec.systems[HOST] = edited
    result = checker.recheck(spec)
    facts = checker.checked_facts
    assert [str(i) for i in facts.instances_on_system(HOST)] == [
        f"stdAgent@{HOST}#1", f"stdAgent@{HOST}#2",
    ]
    assert_lookups_scan(facts)
    assert report_of(result) == report_of(assert_oracles_agree(spec))
