"""Tests for nested (umbrella) domain generation."""

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.facts import FactGenerator
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


class TestStructure:
    def test_umbrella_counts(self):
        parameters = InternetParameters(
            n_domains=8, systems_per_domain=1, umbrella_fanout=3
        )
        spec = SyntheticInternet(parameters).specification()
        # 8 base + ceil(8/3)=3 regions + 1 root.
        assert spec.counts()["domains"] == 12
        assert spec.domains["root"].subdomains == (
            "region0000",
            "region0001",
            "region0002",
        )

    def test_no_umbrellas_by_default(self):
        spec = SyntheticInternet(
            InternetParameters(n_domains=4, systems_per_domain=1)
        ).specification()
        assert spec.counts()["domains"] == 4

    def test_text_and_model_agree(self, compiler):
        internet = SyntheticInternet(
            InternetParameters(n_domains=5, systems_per_domain=1, umbrella_fanout=2)
        )
        from_text = compiler.compile(internet.text()).specification
        assert from_text.counts() == internet.specification().counts()

    def test_containment_chain_depth(self, compiler):
        internet = SyntheticInternet(
            InternetParameters(n_domains=4, systems_per_domain=1, umbrella_fanout=2)
        )
        facts = FactGenerator(internet.specification(), compiler.tree).generate()
        agent = facts.instances_on_system(internet.system_name(0, 0))[0]
        # instance -> dom -> region -> root: three domains above it.
        assert len(facts.domains_of(agent)) == 3
        # ... but only one immediate domain.
        assert facts.direct_domains(agent) == (
            internet.domain_name(0),
        )


class TestSemantics:
    def test_umbrellas_do_not_change_verdicts(self, compiler):
        flat = InternetParameters(
            n_domains=6, systems_per_domain=2, silent_domains=(2,), fast_pollers=(1,)
        )
        nested = InternetParameters(
            n_domains=6,
            systems_per_domain=2,
            silent_domains=(2,),
            fast_pollers=(1,),
            umbrella_fanout=2,
        )
        flat_outcome = ConsistencyChecker(
            SyntheticInternet(flat).specification(), compiler.tree
        ).check()
        nested_outcome = ConsistencyChecker(
            SyntheticInternet(nested).specification(), compiler.tree
        ).check()
        assert flat_outcome.consistent == nested_outcome.consistent
        assert len(flat_outcome.inconsistencies) == len(
            nested_outcome.inconsistencies
        )
