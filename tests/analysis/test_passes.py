"""Per-pass unit tests: each seeded defect triggers its diagnostic.

Every fixture here is a minimal specification seeded with exactly one
defect (NM103's extension fixture seeds two, one per dead-entry kind),
and each test asserts the pass reports it — and nothing else — with a
real source span; the seed linter's clean cases ride along.  A final
suite asserts the five passes that are new in the analysis framework
stay silent on both paper examples.
"""

from pathlib import Path

import pytest

from repro.analysis import Severity
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.extension import parse_extension

from tests.analysis.conftest import REGISTRY, analyze

BASE = """
process agent ::=
    supports mgmt.mib.system, mgmt.mib.ip;
end process agent.
system "server.example" ::=
    cpu sparc;
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agent;
end system "server.example".
"""


def only_finding(report, code):
    assert len(report) == 1, [d.render() for d in report]
    (diagnostic,) = report.diagnostics
    assert diagnostic.code == code
    assert diagnostic.location.line > 0
    assert diagnostic.location.column > 0
    assert diagnostic.location.filename == "fixture.nmsl"
    return diagnostic


class TestHygienePasses:
    def test_nm101_unused_process(self):
        report = analyze(
            BASE
            + "process ghost ::= supports mgmt.mib.udp; end process ghost.",
            codes=["NM101"],
        )
        diagnostic = only_finding(report, "NM101")
        assert diagnostic.subject == "ghost"
        assert diagnostic.severity is Severity.WARNING

    def test_nm102_unmanaged_element(self):
        text = BASE + """
system "dumb.example" ::=
    cpu z80;
    interface p0 net lan type ethernet-csmacd speed 10000000 bps;
    opsys firmware version 1;
    supports mgmt.mib.interfaces;
end system "dumb.example".
"""
        report = analyze(text, codes=["NM102"])
        diagnostic = only_finding(report, "NM102")
        assert diagnostic.subject == "dumb.example"

    def test_nm102_proxied_element_is_managed(self):
        text = BASE.replace(
            "    supports mgmt.mib.system, mgmt.mib.ip;\nend process agent.",
            "    supports mgmt.mib.system, mgmt.mib.ip;\n"
            "    proxies dumb.example via direct;\nend process agent.",
        ) + """
system "dumb.example" ::=
    cpu z80;
    interface p0 net lan type ethernet-csmacd speed 10000000 bps;
    opsys firmware version 1;
    supports mgmt.mib.ip;
end system "dumb.example".
"""
        report = analyze(text, codes=["NM102"])
        assert len(report) == 0, [d.render() for d in report]


class TestNM103DeadExtensionEntries:
    EXTENSION = """
extension billing;
keyword billing in process;
keyword ledger in organization;
output acct for process.exports emit "x";
"""
    SPEC = """
process p ::= supports mgmt.mib; billing 5; end process p.
system "h.example" ::=
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib; process p;
end system "h.example".
"""

    def test_two_dead_entries(self):
        extension = parse_extension(self.EXTENSION)
        report = analyze(
            self.SPEC,
            codes=["NM103"],
            extensions=(extension,),
            extension_files=("billing.nmslx",),
        )
        assert len(report) == 2, [d.render() for d in report]
        messages = " / ".join(d.message for d in report.diagnostics)
        # One per seeded defect: a keyword for an unknown decltype, and
        # a clause action bound to a base-handled keyword.
        assert "ledger" in messages
        assert "exports" in messages
        assert all(d.code == "NM103" for d in report.diagnostics)
        assert all(
            d.location.filename == "billing.nmslx"
            for d in report.diagnostics
        )

    def test_live_extension_clean(self):
        extension = parse_extension(
            "extension billing;\n"
            "keyword billing in process;\n"
            'output acct for process.billing emit "x";\n'
        )
        report = analyze(
            self.SPEC,
            codes=["NM103"],
            extensions=(extension,),
            extension_files=("billing.nmslx",),
        )
        assert len(report) == 0, [d.render() for d in report]


class TestPermissionPasses:
    def test_nm201_unused_permission(self):
        text = BASE.replace(
            "end process agent.",
            '    exports mgmt.mib.ip to "nowhere-domain"\n'
            "        access ReadOnly frequency >= 5 minutes;\n"
            "end process agent.",
        )
        report = analyze(text, codes=["NM201"], strict=False)
        diagnostic = only_finding(report, "NM201")
        assert diagnostic.subject == "process agent"
        assert diagnostic.severity is Severity.WARNING

    def test_nm202_overbroad_grant(self):
        text = BASE.replace(
            "end process agent.",
            '    exports mgmt.mib.ip to "public"\n'
            "        access ReadWrite frequency >= 5 minutes;\n"
            "end process agent.",
        )
        report = analyze(text, codes=["NM202"])
        diagnostic = only_finding(report, "NM202")
        assert diagnostic.severity is Severity.ERROR

    def test_nm201_used_export_not_flagged(self):
        text = BASE + """
process watcher(T: Process) ::=
    queries T requests mgmt.mib.ip frequency >= 10 minutes;
end process watcher.
domain servers ::=
    system server.example;
    exports mgmt.mib.ip to clients access ReadOnly frequency >= 5 minutes;
end domain servers.
domain clients ::= process watcher(server.example); end domain clients.
"""
        report = analyze(text, codes=["NM201"])
        assert len(report) == 0, [d.render() for d in report]

    def test_nm202_readonly_to_public_clean(self):
        text = BASE.replace(
            "end process agent.",
            '    exports mgmt.mib.ip to "public"\n'
            "        access ReadOnly frequency >= 5 minutes;\n"
            "end process agent.",
        )
        report = analyze(text, codes=["NM202"])
        assert len(report) == 0, [d.render() for d in report]

    def test_nm203_shadowed_permission(self):
        report = analyze(
            """
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib.system to clients access ReadOnly frequency >= 10 minutes;
    exports mgmt.mib to clients access ReadOnly frequency >= 5 minutes;
end process agent.
system "host.example" ::=
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "host.example".
domain clients ::= system host.example; end domain clients.
""",
            codes=["NM203"],
        )
        diagnostic = only_finding(report, "NM203")
        assert "mgmt.mib.system" in diagnostic.message
        assert diagnostic.severity is Severity.WARNING

    def test_nm203_distinct_grants_not_shadowed(self):
        # Different grantees: neither grant dominates the other.
        report = analyze(
            """
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib.system to clients access ReadOnly frequency >= 10 minutes;
    exports mgmt.mib.ip to others access ReadOnly frequency >= 5 minutes;
end process agent.
system "host.example" ::=
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "host.example".
domain clients ::= system host.example; end domain clients.
domain others ::= domain clients; end domain others.
""",
            codes=["NM203"],
        )
        assert len(report) == 0, [d.render() for d in report]

    def test_nm204_transitive_overbroad_reach(self):
        report = analyze(
            """
process agent ::=
    supports mgmt.mib;
end process agent.
system "host.example" ::=
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "host.example".
domain leaf ::= system host.example; end domain leaf.
domain umbrella ::=
    domain leaf;
    exports mgmt.mib.ip to "public" access ReadWrite;
end domain umbrella.
""",
            codes=["NM204"],
        )
        diagnostic = only_finding(report, "NM204")
        assert "umbrella" in diagnostic.subject
        assert "domain containment" in diagnostic.message
        assert diagnostic.severity is Severity.ERROR


class TestFrequencyAndTypePasses:
    def test_nm301_frequency_budget_overload(self):
        report = analyze(
            """
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to clients access ReadOnly;
end process agent.
process poller(Target: Process) ::=
    queries Target requests mgmt.mib.system frequency = 1 seconds;
end process poller.
system "slow.example" ::=
    interface sl0 net serial type slip speed 9600 bps;
    supports mgmt.mib;
    process agent;
end system "slow.example".
domain ops ::= system slow.example; end domain ops.
domain clients ::= process poller(slow.example); end domain clients.
""",
            codes=["NM301"],
        )
        diagnostic = only_finding(report, "NM301")
        assert "8192" in diagnostic.message
        assert "960" in diagnostic.message
        assert diagnostic.severity is Severity.ERROR

    def test_nm301_slow_poller_within_budget(self):
        report = analyze(
            """
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to clients access ReadOnly;
end process agent.
process poller(Target: Process) ::=
    queries Target requests mgmt.mib.system frequency >= 5 minutes;
end process poller.
system "slow.example" ::=
    interface sl0 net serial type slip speed 9600 bps;
    supports mgmt.mib;
    process agent;
end system "slow.example".
domain ops ::= system slow.example; end domain ops.
domain clients ::= process poller(slow.example); end domain clients.
""",
            codes=["NM301"],
        )
        assert len(report) == 0, [d.render() for d in report]

    def test_nm302_write_access_to_readonly_group(self):
        report = analyze(
            """
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to clients access Any;
end process agent.
process op(Target: Process) ::=
    queries Target executes mgmt.mib.icmp frequency infrequent;
end process op.
system "host.example" ::=
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "host.example".
domain ops ::= system host.example; process op(host.example); end domain ops.
""",
            codes=["NM302"],
        )
        diagnostic = only_finding(report, "NM302")
        assert "mgmt.mib.icmp" in diagnostic.message
        assert diagnostic.severity is Severity.ERROR

    def test_nm302_write_to_writable_group_clean(self):
        report = analyze(
            """
process op(Target: Process) ::=
    queries Target executes mgmt.mib.ip frequency infrequent;
end process op.
""" + BASE.replace(
                "end system \"server.example\".",
                "end system \"server.example\".\n"
                "domain ops ::= system server.example; "
                "process op(server.example); end domain ops.",
            ),
            codes=["NM302"],
        )
        assert len(report) == 0, [d.render() for d in report]


class TestPaperExamplesStayClean:
    """The five new passes report nothing on the two paper examples."""

    NEW_CODES = ("NM103", "NM203", "NM204", "NM301", "NM302")

    @pytest.mark.parametrize("stem", ["campus", "paper_internet"])
    def test_no_new_pass_findings(self, stem):
        path = Path(__file__).parents[2] / "examples" / f"{stem}.nmsl"
        compiler = NmslCompiler(
            CompilerOptions(filename=str(path), register_codegen=False)
        )
        result = compiler.compile(path.read_text(encoding="utf-8"))
        assert result.ok
        report = REGISTRY.run(
            compiler.analysis_context(result), codes=self.NEW_CODES
        )
        assert len(report) == 0, [d.render() for d in report]
