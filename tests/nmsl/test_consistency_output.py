"""The ``consistency`` output: every fact line once, under its declaration.

Each basic consistency action emits the CLP(R) fact lines its
declaration produced; the ``*`` epilogue emits the whole-specification
ones.  The units are held to three properties against the base facts,
each written with :func:`clpr_fact`:

* together they are exactly those lines, each as often as the walk
  yields it — nothing dropped, nothing twice;
* each line sits under the declaration that produced it, read here from
  the parsed term: a process's ``proc_*``/``proxy_for`` facts, the
  system or domain whose ``contains`` edge holds an instance (for its
  ``instance``/``inst_arg`` facts), a system's ``system_supports`` and
  ``speed``, a ``contains`` edge's parent, a domain's ``dom_export``;
* within a unit, lines keep their walk order.
"""

import dataclasses
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.clpr.program import parse_clauses
from repro.consistency.facts import clpr_fact
from repro.nmsl.actions import OutputContext
from repro.nmsl.compiler import NmslCompiler
from repro.nmsl.outputs import (
    _facts,
    consistency_domain_action,
    consistency_epilogue_action,
    consistency_process_action,
    consistency_system_action,
)
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters
from tests.corpus import corpus

_ROOT = Path(__file__).resolve().parents[2]
_COMPILER = NmslCompiler()

_ACTIONS = (
    ("processes", consistency_process_action),
    ("systems", consistency_system_action),
    ("domains", consistency_domain_action),
)

_TABLES = {"system": "systems", "domain": "domains"}


def _owners(lines):
    """The ``(table, name)`` owner of each fact line (``None``: the
    epilogue's), read from its parsed term."""
    terms = [clause.head for clause in parse_clauses("\n".join(lines))]
    assert len(terms) == len(lines)
    # An instance belongs to the system or domain its contains edge names.
    holder = {
        term.args[1].args[0].name: (
            _TABLES[term.args[0].functor], term.args[0].args[0].name
        )
        for term in terms
        if term.functor == "contains" and term.args[1].functor == "instance"
    }
    owners = []
    for term in terms:
        functor, first = term.functor, term.args[0]
        if functor.startswith("proc_") or functor == "proxy_for":
            owners.append(("processes", first.name))
        elif functor in ("instance", "inst_arg"):
            owners.append(holder[first.name])
        elif functor in ("system_supports", "speed"):
            owners.append(("systems", first.name))
        elif functor == "contains":
            owners.append((_TABLES[first.functor], first.args[0].name))
        elif functor == "dom_export":
            owners.append(("domains", first.name))
        else:
            assert functor in ("data_covers", "access_covers"), functor
            owners.append(None)
    return owners


def _units(specification):
    """The consistency output's units, by owner, and the base facts'
    lines in walk order."""
    context = OutputContext(
        specification=specification, options={"tree": _COMPILER.tree}
    )
    units = {
        (table, spec.name): action(context, spec).splitlines()
        for table, action in _ACTIONS
        for spec in getattr(specification, table).values()
    }
    units[None] = consistency_epilogue_action(
        context, specification
    ).splitlines()
    lines = [clpr_fact(fact) for _owner, fact in _facts(context).base_facts()]
    return units, lines


def _assert_partition(specification):
    units, lines = _units(specification)
    assert Counter(line for unit in units.values() for line in unit) == (
        Counter(lines)
    )
    expected = {}
    for line, owner in zip(lines, _owners(lines)):
        expected.setdefault(owner, []).append(line)
    assert set(expected) <= set(units)
    for owner, unit in units.items():
        assert unit == expected.get(owner, []), owner
    assert any(unit for owner, unit in units.items() if owner is not None)
    return units


@pytest.mark.parametrize(
    "parameters", corpus(), ids=lambda p: f"seed{p.seed}-d{p.n_domains}"
)
def test_corpus_matches_the_per_declaration_filter(parameters):
    _assert_partition(SyntheticInternet(parameters).specification())


@pytest.mark.parametrize(
    "path", sorted((_ROOT / "examples").glob("*.nmsl")), ids=lambda p: p.stem
)
def test_examples_match_the_per_declaration_filter(path):
    result = _COMPILER.compile(path.read_text(encoding="utf-8"))
    _assert_partition(result.specification)


def test_sixty_domain_text_matches_the_per_declaration_filter():
    text = PaperScaleInternet(
        PaperScaleParameters(n_domains=60, hub_count=4, seed=7)
    ).text()
    _assert_partition(_COMPILER.compile(text).specification)


def _renamed(specification, rename):
    """*specification* with system and domain names passed through
    *rename*, wherever they are written."""

    def arg(value):
        return rename.get(value, value) if isinstance(value, str) else value

    def invocations(processes):
        return tuple(
            dataclasses.replace(p, args=tuple(map(arg, p.args)))
            for p in processes
        )

    renamed = dataclasses.replace(specification, systems={}, domains={})
    for system in specification.systems.values():
        name = arg(system.name)
        renamed.systems[name] = dataclasses.replace(
            system, name=name, processes=invocations(system.processes)
        )
    for domain in specification.domains.values():
        name = arg(domain.name)
        renamed.domains[name] = dataclasses.replace(
            domain,
            name=name,
            systems=tuple(map(arg, domain.systems)),
            subdomains=tuple(map(arg, domain.subdomains)),
            processes=invocations(domain.processes),
            exports=tuple(
                dataclasses.replace(e, to_domain=arg(e.to_domain))
                for e in domain.exports
            ),
        )
    return renamed


def test_names_the_substring_tests_confuse():
    """A system that is a suffix of another across ``@`` (its instance
    ids contain ``@a#`` too), a domain sharing a system's name and
    owning an instance, quoted atoms with commas, quotes, backslashes
    and ``#`` in them."""
    base = SyntheticInternet(
        InternetParameters(
            n_domains=3, systems_per_domain=2, applications_per_domain=1,
            silent_domains=(1,),
        )
    ).specification()
    systems, domains = list(base.systems), list(base.domains)
    rename = {
        systems[0]: "a",
        systems[1]: "b@a",
        systems[2]: "Cap, comma",
        systems[3]: "it's \\ here",
        systems[4]: "x#1",
        domains[0]: "a",
        domains[1]: "d, 1",
    }
    units = _assert_partition(_renamed(base, rename))
    # Domain ``a``'s poller is the domain's, not system ``a``'s.
    poller = "instance('poller@a#1', a, poller)."
    assert poller in units["domains", "a"]
    assert poller not in units["systems", "a"]


@pytest.mark.slow
def test_thousand_domains_is_linear():
    """The seed-1989 1,000-domain text: the quadratic filter took about
    110 minutes here."""
    internet = PaperScaleInternet(
        PaperScaleParameters(
            n_domains=1_000,
            hub_count=25,
            silent_domains=(3, 500),
            fast_pollers=(5,),
            egp_pollers=(11,),
            seed=1989,
        )
    )
    result = _COMPILER.compile(internet.text())
    started = time.perf_counter()
    bundle = _COMPILER.generate("consistency", result)
    assert time.perf_counter() - started < 60.0
    units = {unit.decltype for unit in bundle.units}
    assert {"process", "system", "domain", "*"} <= units
    _assert_partition(result.specification)
