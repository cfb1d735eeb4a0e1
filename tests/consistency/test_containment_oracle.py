"""Differential oracle for containment: owner-keyed tables vs the closure.

``FactSet.ancestors`` / ``domains_of`` / ``direct_domains`` answer from
per-owner tables built by loops; :mod:`reference_containment` is the
per-entity recursive closure they replaced.  On every tag of the 50-spec
differential corpus (flat and wrapped in umbrella domains) and of
Hypothesis-drawn containment graphs the two must agree; reports on the
inputs the closure is known to matter for are pinned to the bytes the
recursive closure produced.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.facts import FactGenerator
from repro.mib.tree import Access
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.frequency import FrequencySpec
from repro.nmsl.specs import (
    DomainSpec,
    ExportSpec,
    ProcessInvocation,
    ProcessSpec,
    QuerySpec,
    Specification,
    SystemSpec,
)
from repro.workloads.generator import SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters

from .reference_containment import transitive_containment
from tests.corpus import CORPUS_SIZE, corpus

_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))


def assert_matches_reference(specification: Specification) -> None:
    facts = FactGenerator(specification, _COMPILER.tree).generate()
    reference = transitive_containment(facts.containment)
    tags = {tag for edge in facts.containment for tag in edge}
    tags.update(f"domain:{name}" for name in specification.domains)
    tags.update(f"system:{name}" for name in specification.systems)
    for tag in sorted(tags):
        expected = reference.get(tag, set())
        assert facts.ancestors(tag) == expected, tag
        assert facts.domains_of(tag) == tuple(
            sorted(
                name.split(":", 1)[1]
                for name in expected
                if name.startswith("domain:")
            )
        ), tag
    for instance in facts.instances:
        tag = f"instance:{instance.id}"
        assert facts.domains_of(instance) == facts.domains_of(tag)
        owner = f"{instance.owner_kind}:{instance.owner}"
        assert facts.direct_domains(instance) == (
            (instance.owner,)
            if instance.owner_kind == "domain"
            else tuple(
                sorted(
                    parent.split(":", 1)[1]
                    for parent, child in facts.containment
                    if child == owner
                )
            )
        )
    assert facts.containment_edges() == len(facts.containment)


@pytest.mark.parametrize(
    "parameters",
    corpus(),
    ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)],
)
def test_corpus_matches_reference(parameters):
    assert_matches_reference(SyntheticInternet(parameters).specification())
    assert_matches_reference(
        SyntheticInternet(
            dataclasses.replace(parameters, umbrella_fanout=2)
        ).specification()
    )


# ----------------------------------------------------------------------
# Hypothesis: arbitrary acyclic containment graphs.
# ----------------------------------------------------------------------
@st.composite
def containment_graphs(draw):
    """Nested domains (a DAG: subdomains only of higher index), systems
    in zero, one or two domains, domain-owned instances, empty domains,
    members that are named but never declared."""
    n_domains = draw(st.integers(1, 6))
    n_systems = draw(st.integers(0, 6))
    specification = Specification()
    specification.add_process(ProcessSpec(name="agent", supports=("mgmt.mib",)))
    specification.add_process(
        ProcessSpec(
            name="app",
            queries=(
                QuerySpec(
                    target="agent",
                    requests=("mgmt.mib.system",),
                    frequency=FrequencySpec.at_most_every(900),
                ),
            ),
        )
    )
    for index in range(n_systems):
        specification.add_system(
            SystemSpec(
                name=f"s{index}",
                supports=("mgmt.mib",),
                processes=(ProcessInvocation("agent"),)
                * draw(st.integers(0, 2)),
            )
        )
    system_names = [f"s{index}" for index in range(n_systems)] + ["ghost"]
    for index in range(n_domains):
        specification.add_domain(
            DomainSpec(
                name=f"d{index}",
                systems=tuple(
                    draw(st.lists(st.sampled_from(system_names), max_size=3, unique=True))
                ),
                subdomains=tuple(
                    f"d{other}"
                    for other in range(index + 1, n_domains)
                    if draw(st.booleans())
                ),
                processes=(ProcessInvocation("app"),) * draw(st.integers(0, 2)),
            )
        )
    return specification


@settings(max_examples=120, deadline=None)
@given(containment_graphs())
def test_generated_graphs_match_reference(specification):
    assert_matches_reference(specification)


# ----------------------------------------------------------------------
# Containment cycles: a compile error, but a typed model can carry one.
# ----------------------------------------------------------------------
def _export() -> ExportSpec:
    return ExportSpec(
        variables=("mgmt.mib",),
        to_domain="public",
        access=Access.READ_ONLY,
        frequency=FrequencySpec.at_most_every(300),
    )


def cyclic_model(populated: bool) -> Specification:
    """``domain a ::= domain b; domain b ::= domain a`` as a model — the
    input of ``tests/nmsl/test_semantics.py::test_domain_cycle`` — bare,
    or with elements, pollers and an outsider polling into the cycle."""
    specification = Specification()
    if not populated:
        specification.add_domain(DomainSpec(name="a", subdomains=("b",)))
        specification.add_domain(DomainSpec(name="b", subdomains=("a",)))
        return specification
    specification.add_process(ProcessSpec(name="agent", supports=("mgmt.mib",)))
    for name, period in (("poller", 900), ("fastPoller", 30)):
        specification.add_process(
            ProcessSpec(
                name=name,
                params=(("Target", "Process"),),
                queries=(
                    QuerySpec(
                        target="Target",
                        requests=("mgmt.mib.ip",),
                        frequency=FrequencySpec.at_most_every(period),
                    ),
                ),
            )
        )
    for name in ("sa", "sb", "sc"):
        specification.add_system(
            SystemSpec(
                name=name,
                supports=("mgmt.mib.ip", "mgmt.mib.system"),
                processes=(ProcessInvocation("agent"),),
            )
        )
    specification.add_domain(
        DomainSpec(
            name="a", systems=("sa",), subdomains=("b",),
            processes=(ProcessInvocation("poller", ("sc",)),),
            exports=(_export(),),
        )
    )
    specification.add_domain(
        DomainSpec(
            name="b", systems=("sb",), subdomains=("a",),
            processes=(ProcessInvocation("fastPoller", ("sa",)),),
        )
    )
    specification.add_domain(
        DomainSpec(
            name="c", systems=("sc",),
            processes=(
                ProcessInvocation("poller", ("sb",)),
                ProcessInvocation("fastPoller", ("sa",)),
            ),
        )
    )
    return specification


def _render_sha256(specification: Specification) -> str:
    result = ConsistencyChecker(specification, _COMPILER.tree).check()
    return hashlib.sha256(result.render().encode("utf-8")).hexdigest()


#: sha256 of ``render()``, each computed on the commit before the
#: owner-keyed tables (recursive closure, default collector policy).
PINNED_RENDER_SHA256 = {
    "cycle-bare": "87a02208d1680478beb6204e2995c91102d33e495af192d1e562267cb2aeb504",
    "cycle-populated": "cc23c55faf0485b7359c1e64d157ff4fef7662df759ff98d469dbc1e606aae8f",
    "paper-1k-seed-1989": "4bfba43cfc5c084cf60f10a286cc9b7d17b79c859145714a38914c1918577c5d",
}


def test_cycle_terminates_and_every_member_is_above_every_other():
    facts = FactGenerator(cyclic_model(True), _COMPILER.tree).generate()
    assert facts.domains_of("domain:a") == ("a", "b")
    assert facts.domains_of("domain:b") == ("a", "b")
    assert facts.domains_of("system:sa") == ("a", "b")
    assert facts.domains_of("system:sc") == ("c",)


@pytest.mark.parametrize("populated", [False, True], ids=["bare", "populated"])
def test_cycle_report_is_the_parents(populated):
    key = "cycle-populated" if populated else "cycle-bare"
    assert _render_sha256(cyclic_model(populated)) == PINNED_RENDER_SHA256[key]


def test_thousand_domain_report_is_the_parents():
    """The ledger's model row at a tenth of the size: 1,000 domains,
    10,000 systems, 25 hubs, seed 1989, the ledger's four faults."""
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
    assert (
        _render_sha256(internet.specification())
        == PINNED_RENDER_SHA256["paper-1k-seed-1989"]
    )
