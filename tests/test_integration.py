"""Cross-subsystem integration tests: the flows a downstream user runs.

These mirror the README and the examples — if they break, the advertised
workflows break.
"""

import pytest

from repro import (
    ConfigurationGenerator,
    ConsistencyChecker,
    FileDropTransport,
    ManagementRuntime,
    NmslCompiler,
    RuntimeVerifier,
    SpeculativeChecker,
    check_with_clpr,
    compile_text,
    solve_for_frequency,
)
from repro.nmsl.pprint import render_specification
from repro.workloads.paper import PAPER_SPEC_TEXT
from repro.workloads.scenarios import campus_internet, new_organization


class TestReadmeFlow:
    def test_quickstart_snippet(self):
        compiler = NmslCompiler()
        result = compiler.compile(PAPER_SPEC_TEXT)
        outcome = ConsistencyChecker(result.specification, compiler.tree).check()
        assert "consistent" in outcome.render()
        text = compiler.generate("BartsSnmpd", result).text()
        assert "snmpd.conf" in text

    def test_compile_text_helper_is_public(self):
        compiler, result = compile_text(PAPER_SPEC_TEXT)
        assert result.ok

    def test_public_api_surface(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestDescriptiveThenPrescriptive:
    """The paper's two aspects, chained: check, then configure."""

    def test_only_consistent_specs_are_shipped(self, tmp_path):
        compiler = NmslCompiler()
        result = compiler.compile(campus_internet(include_noc_permission=False))
        outcome = ConsistencyChecker(result.specification, compiler.tree).check()
        assert not outcome.consistent
        # A user gates shipping on the verdict; fix and ship.
        fixed = compiler.compile(campus_internet())
        fixed_outcome = ConsistencyChecker(
            fixed.specification, compiler.tree
        ).check()
        assert fixed_outcome.consistent
        records = ConfigurationGenerator(compiler, fixed).ship(
            "BartsSnmpd", FileDropTransport(tmp_path)
        )
        assert len(records) == 5

    def test_shipped_config_loads_into_agents(self, tmp_path):
        compiler = NmslCompiler()
        result = compiler.compile(campus_internet())
        ConfigurationGenerator(compiler, result).ship(
            "BartsSnmpd", FileDropTransport(tmp_path)
        )
        # The file a real snmpd would read parses into a working policy.
        from repro.snmp.community import CommunityPolicy

        text = (tmp_path / "gw.cs.campus.edu.conf").read_text()
        policy = CommunityPolicy.from_snmpd_conf(text, compiler.tree)
        assert "noc-domain" in policy.communities()


class TestBothEnginesAgreeOnRealScenarios:
    @pytest.mark.parametrize(
        "text",
        [
            PAPER_SPEC_TEXT,
            campus_internet(),
            campus_internet(include_noc_permission=False),
            campus_internet(noc_frequency_minutes=1.0),
            campus_internet() + new_organization(),
        ],
        ids=["paper", "campus", "campus-noperm", "campus-fast", "campus+org"],
    )
    def test_agreement(self, text):
        compiler = NmslCompiler()
        specification = compiler.compile(text).specification
        closure = ConsistencyChecker(specification, compiler.tree).check()
        clpr = check_with_clpr(specification, compiler.tree)
        assert closure.consistent == clpr.consistent


class TestSpecToSimulationToVerification:
    def test_full_loop(self):
        compiler = NmslCompiler()
        result = compiler.compile(campus_internet())
        # 1. the spec must be consistent before deployment
        assert ConsistencyChecker(result.specification, compiler.tree).check().consistent
        # 2. deploy
        runtime = ManagementRuntime(compiler, result)
        assert runtime.install_configuration() == 5
        # 3. operate
        runtime.start(duration_s=1800)
        runtime.run(1800)
        assert set(runtime.outcomes()) == {"ok"}
        # 4. verify adherence
        verifier = RuntimeVerifier(runtime.facts)
        report = verifier.verify(runtime.log)
        assert report.adheres
        assert verifier.cross_check_enforcement(runtime.log, report) == []


class TestPlanningLoop:
    def test_speculate_then_merge_then_recheck(self):
        compiler = NmslCompiler()
        campus = compiler.compile(campus_internet()).specification
        candidate = compiler.compile(
            new_organization(query_minutes=15), strict=False
        ).specification
        # Plan ...
        speculative = SpeculativeChecker(campus, compiler.tree)
        assert speculative.check_addition(candidate).consistent
        # ... solve for the real bound ...
        combined = compiler.compile(
            campus_internet() + new_organization(query_minutes=15)
        ).specification
        bounds = solve_for_frequency(
            combined, compiler.tree, "deptPoller", "snmpAgent"
        )
        assert bounds
        # ... and the merged internet still checks out.
        assert ConsistencyChecker(combined, compiler.tree).check().consistent


class TestSerializationLoop:
    def test_build_render_compile_check(self):
        """Programmatic spec -> text -> compile -> same verdict."""
        from repro.workloads.generator import (
            InternetParameters,
            SyntheticInternet,
        )

        compiler = NmslCompiler()
        internet = SyntheticInternet(
            InternetParameters(n_domains=3, systems_per_domain=2, silent_domains=(1,))
        )
        built = internet.specification()
        rendered = render_specification(built)
        recompiled = compiler.compile(rendered).specification
        verdict_a = ConsistencyChecker(built, compiler.tree).check()
        verdict_b = ConsistencyChecker(recompiled, compiler.tree).check()
        assert verdict_a.consistent == verdict_b.consistent
        assert len(verdict_a.inconsistencies) == len(verdict_b.inconsistencies)
