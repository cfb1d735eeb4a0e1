"""The faithful CLP(R) path, and its agreement with the closure checker."""

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.oracles import check_with_clpr, failing_clients
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.paper import (
    PAPER_SPEC_TEXT,
    PaperScaleInternet,
    PaperScaleParameters,
)
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


class TestClprPath:
    def test_paper_consistent(self, compiler):
        result = compiler.compile(PAPER_SPEC_TEXT)
        outcome = check_with_clpr(result.specification, compiler.tree)
        assert outcome.consistent
        assert outcome.stats["engine"] == "clpr-sld"

    def test_campus_consistent(self, compiler):
        result = compiler.compile(campus_internet())
        assert check_with_clpr(result.specification, compiler.tree).consistent

    def test_campus_missing_permission_found(self, compiler):
        result = compiler.compile(campus_internet(include_noc_permission=False))
        outcome = check_with_clpr(result.specification, compiler.tree)
        assert not outcome.consistent
        assert any(
            "nocMonitor" in problem.message for problem in outcome.inconsistencies
        )

    def test_campus_frequency_conflict_found(self, compiler):
        result = compiler.compile(campus_internet(noc_frequency_minutes=1.0))
        outcome = check_with_clpr(result.specification, compiler.tree)
        assert not outcome.consistent

    def test_structured_causes(self, compiler):
        """Each proof names its client, server and variable as causes."""
        result = compiler.compile(campus_internet(include_noc_permission=False))
        outcome = check_with_clpr(result.specification, compiler.tree)
        for problem in outcome.inconsistencies:
            client, server, variable = problem.causes
            assert client.startswith("client ")
            assert server.startswith("server ")
            assert variable.startswith("variable ")
            assert client.split(" ", 1)[1] in problem.message

    def test_answers_are_read_to_exhaustion(self, compiler):
        """More than 1,000 ``inconsistent(R)`` answers: every one is
        read, so the implicated clients are the checker's."""
        specification = SyntheticInternet(
            InternetParameters(
                n_domains=20,
                systems_per_domain=2,
                applications_per_domain=60,
                silent_domains=tuple(range(1, 20)),
            )
        ).specification()
        checked = ConsistencyChecker(specification, compiler.tree).check()
        outcome = check_with_clpr(specification, compiler.tree)
        assert len(outcome.inconsistencies) > 1000
        assert failing_clients(outcome) == failing_clients(checked)


class TestEngineAgreement:
    """Both engines must agree on verdicts for literal-target workloads."""

    CASES = [
        InternetParameters(n_domains=3, systems_per_domain=2),
        InternetParameters(n_domains=3, systems_per_domain=2, silent_domains=(1,)),
        InternetParameters(n_domains=3, systems_per_domain=2, fast_pollers=(0,)),
        InternetParameters(n_domains=3, systems_per_domain=2, egp_pollers=(3,)),
        InternetParameters(
            n_domains=4,
            systems_per_domain=1,
            silent_domains=(2,),
            fast_pollers=(1,),
            egp_pollers=(5,),
        ),
    ]

    @pytest.mark.parametrize("parameters", CASES)
    def test_verdicts_agree(self, compiler, parameters):
        specification = SyntheticInternet(parameters).specification()
        closure = ConsistencyChecker(specification, compiler.tree).check()
        clpr = check_with_clpr(specification, compiler.tree)
        assert closure.consistent == clpr.consistent

    @pytest.mark.parametrize("parameters", CASES)
    def test_closure_matches_expected_count(self, compiler, parameters):
        internet = SyntheticInternet(parameters)
        specification = internet.specification()
        closure = ConsistencyChecker(specification, compiler.tree).check()
        assert len(closure.inconsistencies) == (
            internet.expected_inconsistent_references()
        )

    def test_text_and_model_paths_agree(self, compiler):
        """The generator's NMSL text compiles to the same verdict as its
        directly-built model."""
        parameters = InternetParameters(
            n_domains=3, systems_per_domain=2, fast_pollers=(2,)
        )
        internet = SyntheticInternet(parameters)
        from_text = compiler.compile(internet.text()).specification
        from_model = internet.specification()
        verdict_text = ConsistencyChecker(from_text, compiler.tree).check()
        verdict_model = ConsistencyChecker(from_model, compiler.tree).check()
        assert verdict_text.consistent == verdict_model.consistent
        assert len(verdict_text.inconsistencies) == len(verdict_model.inconsistencies)


@pytest.mark.slow
def test_faulted_300_domain_row_agrees(compiler):
    """The paper's rule text at 300 faulted paper-scale domains: the
    clients ``clpr`` proves inconsistent are the checker's nine."""
    specification = PaperScaleInternet(
        PaperScaleParameters(
            n_domains=300,
            seed=7,
            silent_domains=(3, 100),
            fast_pollers=(5,),
            egp_pollers=(11,),
        )
    ).specification()
    checked = ConsistencyChecker(specification, compiler.tree).check()
    outcome = check_with_clpr(specification, compiler.tree)
    assert len(failing_clients(checked)) == 9
    assert failing_clients(outcome) == failing_clients(checked)
