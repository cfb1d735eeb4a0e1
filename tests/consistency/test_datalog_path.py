"""Tests for the bottom-up (datalog) consistency engine."""

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.datalog_path import check_with_datalog
from repro.consistency.oracles import check_with_clpr
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.paper import PAPER_SPEC_TEXT
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


class TestVerdicts:
    def test_paper_consistent(self, compiler):
        spec = compiler.compile(PAPER_SPEC_TEXT).specification
        outcome = check_with_datalog(spec, compiler.tree)
        assert outcome.consistent
        assert outcome.stats["engine"] == "datalog-seminaive"
        assert outcome.stats["derived_facts"] > 0

    def test_campus_consistent(self, compiler):
        spec = compiler.compile(campus_internet()).specification
        assert check_with_datalog(spec, compiler.tree).consistent

    def test_missing_permission_found(self, compiler):
        spec = compiler.compile(
            campus_internet(include_noc_permission=False)
        ).specification
        outcome = check_with_datalog(spec, compiler.tree)
        assert not outcome.consistent

    def test_frequency_conflict_found(self, compiler):
        spec = compiler.compile(
            campus_internet(noc_frequency_minutes=1.0)
        ).specification
        assert not check_with_datalog(spec, compiler.tree).consistent

    def test_provenance_in_causes(self, compiler):
        spec = compiler.compile(
            campus_internet(include_noc_permission=False)
        ).specification
        outcome = check_with_datalog(spec, compiler.tree)
        (first, *_rest) = outcome.inconsistencies
        assert first.causes
        assert "ref_inst" in first.causes[0]


class TestThreeEngineAgreement:
    CASES = [
        InternetParameters(n_domains=3, systems_per_domain=2),
        InternetParameters(n_domains=3, systems_per_domain=2, silent_domains=(1,)),
        InternetParameters(n_domains=3, systems_per_domain=2, fast_pollers=(0,)),
        InternetParameters(n_domains=3, systems_per_domain=2, egp_pollers=(3,)),
    ]

    @pytest.mark.parametrize("parameters", CASES)
    def test_all_engines_agree(self, compiler, parameters):
        specification = SyntheticInternet(parameters).specification()
        closure = ConsistencyChecker(specification, compiler.tree).check()
        datalog = check_with_datalog(specification, compiler.tree)
        clpr = check_with_clpr(specification, compiler.tree)
        assert closure.consistent == datalog.consistent == clpr.consistent

    def test_datalog_and_clpr_counts_match(self, compiler):
        """Both rule-based engines count per (ref, variable) fact."""
        specification = SyntheticInternet(
            InternetParameters(
                n_domains=3, systems_per_domain=2, silent_domains=(1,)
            )
        ).specification()
        datalog = check_with_datalog(specification, compiler.tree)
        clpr = check_with_clpr(specification, compiler.tree)
        assert len(datalog.inconsistencies) == len(clpr.inconsistencies)
