"""Verdicts of the consistency rules through every oracle.

:mod:`repro.consistency.rules` is a Datalog-style program of Horn clauses
(with CLP(R) constraints for frequencies).  The module keeps the name it
had when a bottom-up engine also read that text; the text now has one
reader, ``clpr``, and these cases hold it, the unindexed ``scan`` oracle
and the production checker to the same verdicts.
"""

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.oracles import ORACLES, failing_clients
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.paper import PAPER_SPEC_TEXT
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


def _verdicts(specification, tree):
    return {
        name: oracle(specification, tree).consistent
        for name, oracle in ORACLES.items()
    }


class TestVerdicts:
    def test_paper_consistent(self, compiler):
        spec = compiler.compile(PAPER_SPEC_TEXT).specification
        assert _verdicts(spec, compiler.tree) == {"scan": True, "clpr": True}

    def test_campus_consistent(self, compiler):
        spec = compiler.compile(campus_internet()).specification
        assert _verdicts(spec, compiler.tree) == {"scan": True, "clpr": True}

    def test_missing_permission_found(self, compiler):
        spec = compiler.compile(
            campus_internet(include_noc_permission=False)
        ).specification
        assert _verdicts(spec, compiler.tree) == {"scan": False, "clpr": False}

    def test_frequency_conflict_found(self, compiler):
        spec = compiler.compile(
            campus_internet(noc_frequency_minutes=1.0)
        ).specification
        assert _verdicts(spec, compiler.tree) == {"scan": False, "clpr": False}


class TestThreeEngineAgreement:
    """The checker, ``scan`` and ``clpr`` agree on the verdict and on
    the clients they implicate."""

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
        scan = ORACLES["scan"](specification, compiler.tree)
        clpr = ORACLES["clpr"](specification, compiler.tree)
        assert closure.consistent == scan.consistent == clpr.consistent
        assert (
            failing_clients(closure)
            == failing_clients(scan)
            == failing_clients(clpr)
        )
