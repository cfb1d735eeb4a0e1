"""The NM4xx relational diagnostics: rendering, waivers, determinism,
and a forked baseline's equality with a fresh one."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineError,
    Severity,
    Waiver,
    check_revisions,
    relational_registry,
    relational_report,
    render_json,
    render_sarif,
)
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.impact import ConfigChange, ImpactAnalyzer, ImpactSet
from repro.consistency.evolution import diff_specifications
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import SyntheticInternet
from tests.consistency.deltas import LOCAL_DELTAS, NON_LOCAL_DELTAS, TREE
from tests.corpus import CORPUS_SIZE, corpus

REPO_ROOT = Path(__file__).resolve().parents[2]

SYSTEMS = """
process agent ::=
    supports mgmt.mib.system, mgmt.mib.ip;
end process agent.
process watcher(T: Process) ::=
    queries T requests mgmt.mib.ip frequency >= 10 minutes;
end process watcher.
system "server.example" ::=
    cpu sparc;
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agent;
end system "server.example".
system "noc.example" ::=
    cpu sparc;
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agent;
end system "noc.example".
"""

GRANT = """
domain servers ::=
    system server.example;
    exports mgmt.mib.ip to clients access {access} frequency >= {minutes} minutes;
end domain servers.
domain clients ::=
    system noc.example;
    process watcher(server.example);
end domain clients.
"""

SPEC_A = SYSTEMS + GRANT.format(access="ReadOnly", minutes=5)
SPEC_WIDENED = SYSTEMS + GRANT.format(access="ReadWrite", minutes=5)
SPEC_TIGHTENED = SYSTEMS + GRANT.format(access="ReadOnly", minutes=20)
SPEC_UNGRANTED = SYSTEMS + GRANT.replace(
    "    exports mgmt.mib.ip to clients access {access} "
    "frequency >= {minutes} minutes;\n",
    "",
).format(access="ReadOnly", minutes=5)


def impact_between(text_a, text_b, **kwargs):
    compiler_a = NmslCompiler(
        CompilerOptions(filename="a.nmsl", register_codegen=False)
    )
    result_a = compiler_a.compile(text_a, strict=False)
    compiler_b = NmslCompiler(
        CompilerOptions(filename="b.nmsl", register_codegen=False)
    )
    result_b = compiler_b.compile(text_b, strict=False)
    kwargs.setdefault("tags", ())
    analyzer = ImpactAnalyzer(compiler_a.tree, **kwargs)
    analyzer.baseline(result_a.specification)
    return analyzer.analyze(result_b.specification)


def report_between(text_a, text_b, **kwargs):
    return relational_report(impact_between(text_a, text_b, **kwargs))


class TestFindings:
    def test_widened_access_is_nm401_error(self):
        report = report_between(SPEC_A, SPEC_WIDENED)
        (finding,) = report.by_code("NM401")
        assert finding.severity is Severity.ERROR
        assert "widens access" in finding.message
        assert "ReadOnly to ReadWrite" in finding.message
        assert finding.suggestion  # points at --update-waiver
        # The span lands on the B-side source.
        assert finding.location.filename == "b.nmsl"
        assert finding.location.line > 1
        assert report.gating()

    def test_tightened_frequency_is_nm404_warning(self):
        report = report_between(SPEC_A, SPEC_TIGHTENED)
        (finding,) = report.by_code("NM404")
        assert finding.severity is Severity.WARNING
        assert "frequency budget tightened" in finding.message

    def test_broken_reference_is_nm402_error(self):
        report = report_between(SPEC_A, SPEC_UNGRANTED)
        flips = report.by_code("NM402")
        assert flips
        assert all(f.severity is Severity.ERROR for f in flips)
        assert any(
            "consistent -> inconsistent" in f.message for f in flips
        )

    def test_fixed_reference_is_nm402_note(self):
        report = report_between(SPEC_UNGRANTED, SPEC_A)
        flips = report.by_code("NM402")
        assert flips
        assert all(f.severity is Severity.NOTE for f in flips)
        # The fix itself never gates — but introducing the grant that
        # fixes it is a widening, and that does (NM401, by design).
        assert {d.code for d in report.gating()} == {"NM401"}

    def test_self_diff_reports_nothing(self):
        report = report_between(SPEC_A, SPEC_A)
        assert not report.diagnostics


class TestCraftedImpact:
    def _diff(self):
        compiler = NmslCompiler(
            CompilerOptions(register_codegen=False)
        )
        spec = compiler.compile(SPEC_A, strict=False).specification
        return diff_specifications(spec, spec)

    def test_unexplained_rewrite_is_nm403(self):
        impact = ImpactSet(
            diff=self._diff(),
            config_changes=(
                ConfigChange(
                    "server.example", "BartsSnmpd", "a" * 64, "b" * 64,
                    spec_caused=False,
                ),
            ),
        )
        (finding,) = relational_report(impact).by_code("NM403")
        assert finding.severity is Severity.WARNING
        assert "no specification change" in finding.message

    def test_orphan_is_nm405(self):
        impact = ImpactSet(diff=self._diff(), orphaned=("old.example",))
        (finding,) = relational_report(impact).by_code("NM405")
        assert finding.severity is Severity.WARNING
        assert "decommission" in finding.message


class TestWaiver:
    def test_waiver_suppresses_the_gate(self, tmp_path):
        report = report_between(SPEC_A, SPEC_WIDENED)
        assert report.gating()
        path = tmp_path / "waivers.json"
        Waiver.from_gating(report).save(path)
        waived = Waiver.load(path).apply(report)
        assert not waived.gating()
        assert len(waived) == len(report)  # reported, not hidden

    def test_analysis_baseline_cannot_waive_a_diff(self, tmp_path):
        report = report_between(SPEC_A, SPEC_WIDENED)
        path = tmp_path / "baseline.json"
        Baseline.from_report(report).save(path)
        with pytest.raises(BaselineError, match="nmslc-analyze"):
            Waiver.load(path)

    def test_unknown_schema_is_rejected(self, tmp_path):
        path = tmp_path / "waivers.json"
        path.write_text(
            json.dumps(
                {"schema": 99, "tool": "nmslc-diff", "suppressions": []}
            )
        )
        with pytest.raises(BaselineError, match="schema 99"):
            Waiver.load(path)


class TestDeterminism:
    def test_repeated_diffs_render_byte_identically(self):
        registry = relational_registry()
        renders = [
            render_sarif(
                relational_report(
                    impact_between(SPEC_A, SPEC_WIDENED), registry
                ),
                registry.passes(),
            )
            for _ in range(2)
        ]
        assert renders[0] == renders[1]
        payloads = [
            render_json(report_between(SPEC_A, SPEC_TIGHTENED))
            for _ in range(2)
        ]
        assert payloads[0] == payloads[1]

    def test_sarif_carries_all_nm4xx_rules(self):
        registry = relational_registry()
        report = relational_report(
            impact_between(SPEC_A, SPEC_WIDENED), registry
        )
        sarif = json.loads(render_sarif(report, registry.passes()))
        rules = [
            rule["id"]
            for rule in sarif["runs"][0]["tool"]["driver"]["rules"]
        ]
        assert rules == ["NM401", "NM402", "NM403", "NM404", "NM405"]
        (result,) = sarif["runs"][0]["results"]
        fingerprint = result["partialFingerprints"]["nmslFingerprint/v2"]
        assert len(fingerprint) == 64


# ----------------------------------------------------------------------
# A forked baseline answers like a fresh one, and leaves its origin be.
# ----------------------------------------------------------------------
def _checked_state(checker):
    return (
        checker.check().render(),
        list(checker._verdict_list),
        list(checker.checked_facts.base_facts()),
    )


def assert_fork_equals_fresh(tree, old, new, tags=("BartsSnmpd",)):
    """``check_revisions`` from a checked checker of *old* (forked) and
    from *old* itself (checked afresh): the same impact set, bar the
    engine's statistics, the same NM4xx bytes, and the checker as it
    was."""
    resident = ConsistencyChecker(old, tree)
    before = _checked_state(resident)
    forked, forked_report = check_revisions(tree, resident, new, tags=tags)
    fresh, fresh_report = check_revisions(tree, old, new, tags=tags)
    assert dataclasses.replace(forked, stats={}) == dataclasses.replace(
        fresh, stats={}
    )
    assert render_json(forked_report) == render_json(fresh_report)
    assert _checked_state(resident) == before
    return forked


def test_forked_campus_widening_equals_the_fresh_baseline():
    from benchmarks.widen_access import widen

    text = (REPO_ROOT / "examples" / "campus.nmsl").read_text()
    compiler = NmslCompiler()
    old = compiler.compile(text).specification
    new = NmslCompiler().compile(widen(text)).specification
    impact = assert_fork_equals_fresh(compiler.tree, old, new)
    assert impact.widened()


@pytest.mark.parametrize(
    "index", range(CORPUS_SIZE), ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)]
)
def test_forked_corpus_deltas_equal_the_fresh_baseline(index):
    rng = random.Random(index)
    old = SyntheticInternet(corpus()[index]).specification()
    for delta in (*LOCAL_DELTAS, *NON_LOCAL_DELTAS):
        assert_fork_equals_fresh(TREE, old, delta(rng, old))
