"""The ``consistency`` output: one render, every line bucketed by owner.

Each basic consistency action emits the lines of the CLP(R) fact text
that belong to its declaration.  The actions used to re-render the whole
text and filter every line of it once per declaration — quadratic, about
110 minutes at 1,000 domains.  Now the text is rendered once per output
context and its lines are bucketed by owner in one pass.  That filter is
kept below as the reference the buckets are held to, per declaration
and byte for byte, including names that make its substring tests match
in unexpected places.
"""

import dataclasses
import time
from pathlib import Path

import pytest

from repro.consistency.facts import _atom
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
from tests.consistency.test_differential import _corpus

_ROOT = Path(__file__).resolve().parents[2]
_COMPILER = NmslCompiler()


def _select(text, pairs):
    """Lines matching any (prefix, needle) pair."""
    lines = []
    for line in text.splitlines():
        for prefix, needle in pairs:
            if line.startswith(prefix) and needle in line:
                lines.append(line)
                break
    return "\n".join(lines)


def _reference_pairs(kind, spec):
    name = _atom(spec.name)
    if kind == "process":
        return (
            ("proc_supports(", f"proc_supports({name},"),
            ("proc_export(", f"proc_export({name},"),
            ("proc_query(", f"proc_query({name},"),
        )
    if kind == "system":
        return (
            ("instance(", f", {name},"),
            ("inst_arg(", f"@{spec.name}#"),
            ("system_supports(", f"system_supports({name},"),
            ("speed(", f"speed({name},"),
            ("contains(system", f"contains(system({name})"),
        )
    return (
        ("contains(domain", f"contains(domain({name}),"),
        ("dom_export(", f"dom_export({name},"),
    )


_ACTIONS = (
    ("process", "processes", consistency_process_action),
    ("system", "systems", consistency_system_action),
    ("domain", "domains", consistency_domain_action),
)


def _assert_matches_reference(specification):
    context = OutputContext(
        specification=specification, options={"tree": _COMPILER.tree}
    )
    full = _facts(context).to_clpr_text()
    emitted = 0
    for kind, table, action in _ACTIONS:
        for spec in getattr(specification, table).values():
            expected = _select(full, _reference_pairs(kind, spec))
            assert action(context, spec) == expected, (kind, spec.name)
            emitted += bool(expected)
    epilogue = "\n".join(
        line
        for line in full.splitlines()
        if line.startswith(("data_covers(", "access_covers("))
    )
    assert consistency_epilogue_action(context, specification) == epilogue
    assert emitted


@pytest.mark.parametrize(
    "parameters", _corpus(), ids=lambda p: f"seed{p.seed}-d{p.n_domains}"
)
def test_corpus_matches_the_per_declaration_filter(parameters):
    _assert_matches_reference(SyntheticInternet(parameters).specification())


@pytest.mark.parametrize(
    "path", sorted((_ROOT / "examples").glob("*.nmsl")), ids=lambda p: p.stem
)
def test_examples_match_the_per_declaration_filter(path):
    result = _COMPILER.compile(path.read_text(encoding="utf-8"))
    _assert_matches_reference(result.specification)


def test_sixty_domain_text_matches_the_per_declaration_filter():
    text = PaperScaleInternet(
        PaperScaleParameters(n_domains=60, hub_count=4, seed=7)
    ).text()
    _assert_matches_reference(_COMPILER.compile(text).specification)


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
    ids contain ``@a#`` too), a domain sharing a system's name, quoted
    atoms with commas, quotes and ``#`` in them."""
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
        systems[3]: "it's",
        systems[4]: "x#1",
        domains[0]: "a",
        domains[1]: "d, 1",
    }
    _assert_matches_reference(_renamed(base, rename))


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
