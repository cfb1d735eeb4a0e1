"""Tests for the synthetic internet generator."""

import hashlib

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters
from tests.corpus import corpus


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


class TestShape:
    def test_counts(self, compiler):
        parameters = InternetParameters(n_domains=4, systems_per_domain=3)
        spec = SyntheticInternet(parameters).specification()
        counts = spec.counts()
        assert counts["systems"] == 12
        assert counts["domains"] == 4
        assert counts["processes"] == 4  # stdAgent + 3 poller kinds

    def test_text_compiles_to_same_counts(self, compiler):
        parameters = InternetParameters(n_domains=3, systems_per_domain=2)
        internet = SyntheticInternet(parameters)
        result = compiler.compile(internet.text())
        assert result.specification.counts() == internet.specification().counts()

    def test_deterministic(self):
        parameters = InternetParameters(n_domains=2, systems_per_domain=2, seed=7)
        assert (
            SyntheticInternet(parameters).text()
            == SyntheticInternet(parameters).text()
        )

    def test_cross_domain_targets(self):
        parameters = InternetParameters(n_domains=3, systems_per_domain=2)
        internet = SyntheticInternet(parameters)
        spec = internet.specification()
        invocation = spec.domains["dom00000"].processes[0]
        assert invocation.args == ("host00000.dom00001.net",)

    def test_default_target_is_the_next_domain(self):
        parameters = InternetParameters(n_domains=7, applications_per_domain=3)
        internet = SyntheticInternet(parameters)
        assert all(
            internet.target_domain(domain, app) == (domain + 1) % 7
            for domain in range(7)
            for app in range(3)
        )

    def test_pinned_bytes(self, tmp_path):
        """Umbrellas and locality at paper scale, one corpus spec, and
        what ``write_text`` reports writing: the bytes the perf
        ledger's inputs and the CLI sweep are built from."""
        def sha256(text):
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        internet = PaperScaleInternet(
            PaperScaleParameters(n_domains=60, hub_count=4, seed=7)
        )
        assert sha256(internet.text()) == (
            "9d16949940f2d56e4d007b2605e37a68d935729fe7cca5b0c63757987326ef1d"
        )
        assert sha256(SyntheticInternet(corpus()[0]).text()) == (
            "ce1ecfb096693362f093f04a21226bf933f53805aafcba2798dd3e19393de92f"
        )
        assert internet.write_text(tmp_path / "paper60.nmsl") == 267_587


class TestVerdicts:
    def test_clean_internet_consistent(self, compiler):
        spec = SyntheticInternet(
            InternetParameters(n_domains=3, systems_per_domain=2)
        ).specification()
        assert ConsistencyChecker(spec, compiler.tree).check().consistent

    def test_expected_counts_with_all_injections(self, compiler):
        parameters = InternetParameters(
            n_domains=5,
            systems_per_domain=2,
            applications_per_domain=2,
            silent_domains=(2,),
            fast_pollers=(0, 7),
            egp_pollers=(4,),
        )
        internet = SyntheticInternet(parameters)
        outcome = ConsistencyChecker(
            internet.specification(), compiler.tree
        ).check()
        assert len(outcome.inconsistencies) == (
            internet.expected_inconsistent_references()
        )

    def test_silent_domain_count(self):
        parameters = InternetParameters(
            n_domains=4, systems_per_domain=1, applications_per_domain=3,
            silent_domains=(1,),
        )
        # Domain 0's three pollers target domain 1: three failures.
        assert SyntheticInternet(parameters).expected_inconsistent_references() == 3
