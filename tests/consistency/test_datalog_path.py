"""Verdicts of the consistency rules through every oracle.

:mod:`repro.consistency.rules` is a Datalog-style program of Horn clauses
(with CLP(R) constraints for frequencies).  The module keeps the name it
had when a bottom-up engine also read that text; the text now has one
reader, ``clpr``, and these cases hold it, the unindexed ``scan`` oracle
and the production checker to the same verdicts.
"""

from pathlib import Path

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.oracles import ORACLES, failing_clients
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.paper import PAPER_SPEC_TEXT
from repro.workloads.scenarios import campus_internet

REPO_ROOT = Path(__file__).resolve().parents[2]


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


class TestSubNanosecondPeriods:
    """``examples/campus.nmsl`` with ``nocMonitor`` polling every 1e-10 s
    where the two exports to ``noc-domain`` allow 2e-10 s: a frequency
    conflict every oracle must find, which ``clpr`` missed while it
    rounded a float to a denominator of 10**9 (1e-10 read as 0)."""

    def test_every_oracle_finds_the_conflict(self, compiler):
        text = (REPO_ROOT / "examples" / "campus.nmsl").read_text()
        assert text.count("5 minutes") == 3  # nocMonitor, then the exports
        text = text.replace("5 minutes", "0.0000000002 seconds").replace(
            "0.0000000002 seconds", "0.0000000001 seconds", 1
        )
        specification = compiler.compile(text).specification
        checked = ConsistencyChecker(specification, compiler.tree).check()
        assert not checked.consistent
        assert len(failing_clients(checked)) == 4
        for name, oracle in ORACLES.items():
            answer = oracle(specification, compiler.tree)
            assert not answer.consistent, name
            assert failing_clients(answer) == failing_clients(checked), name
