"""Tests for the BartsSnmpd configuration generator."""

import pytest

from repro.nmsl.compiler import NmslCompiler
from repro.workloads.paper import PAPER_SPEC_TEXT
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def paper_bundle():
    compiler = NmslCompiler()
    result = compiler.compile(PAPER_SPEC_TEXT)
    return compiler.generate("BartsSnmpd", result)


class TestPaperConfig:
    def test_one_unit_per_agent_element(self, paper_bundle):
        names = [unit.name for unit in paper_bundle.units if unit.text]
        assert names == ["romano.cs.wisc.edu", "cs.wisc.edu"]

    def test_header_and_identity(self, paper_bundle):
        text = paper_bundle.unit_for("romano.cs.wisc.edu").text
        assert text.startswith("# snmpd.conf for romano.cs.wisc.edu")
        assert "sysName romano.cs.wisc.edu" in text
        assert "sysDescr SunOS 4.0.1" in text

    def test_view_is_effective_intersection(self, paper_bundle):
        """Agent supports mgmt.mib; element lacks EGP: views are the
        element's seven groups, not the whole MIB."""
        text = paper_bundle.unit_for("romano.cs.wisc.edu").text
        view_lines = [l for l in text.splitlines() if l.startswith("view ")]
        assert len(view_lines) == 7
        assert not any("mgmt.mib.egp" in line for line in view_lines)
        assert any(line.endswith("mgmt.mib.ip") for line in view_lines)

    def test_process_export_becomes_community(self, paper_bundle):
        text = paper_bundle.unit_for("romano.cs.wisc.edu").text
        assert (
            "community public view-snmpdReadOnly ReadOnly min-interval 300"
            in text
        )

    def test_intra_domain_community(self, paper_bundle):
        text = paper_bundle.unit_for("romano.cs.wisc.edu").text
        assert "community wisc-cs view-snmpdReadOnly ReadWrite min-interval 0" in text


class TestCampusConfig:
    def test_domain_exports_reach_member_agents(self):
        compiler = NmslCompiler()
        result = compiler.compile(campus_internet())
        bundle = compiler.generate("BartsSnmpd", result)
        text = bundle.unit_for("gw.cs.campus.edu").text
        # cs-domain exports to noc-domain at >= 5 minutes.
        assert "community noc-domain view-snmpAgent ReadOnly min-interval 300" in text

    def test_elements_without_agents_get_no_config(self):
        compiler = NmslCompiler()
        result = compiler.compile(
            """
process app(T: Process) ::=
    queries T requests mgmt.mib frequency infrequent;
end process app.
system "bare.example" ::=
    cpu x; interface i net n type t speed 1 bps; opsys o version 1;
    supports mgmt.mib.system;
    process app(bare.example);
end system "bare.example".
""",
            strict=False,
        )
        bundle = compiler.generate("BartsSnmpd", result)
        assert bundle.unit_for("bare.example") is None


class TestEffectiveViewMemo:
    """One ``MibView.intersection`` per distinct (agent view, element
    view) pair in a generation run, and never a wrong view for it."""

    SPEC = """
process agent ::= supports mgmt.mib; end process agent.
system a ::= cpu x; supports mgmt.mib.system, mgmt.mib.ip; process agent; end system a.
system b ::= cpu x; supports mgmt.mib.system, mgmt.mib.ip; process agent; end system b.
system c ::= cpu x; supports mgmt.mib.tcp; process agent; end system c.
system d ::= cpu x; process agent; end system d.
"""

    def test_shared_pairs_intersect_once(self, monkeypatch):
        from repro.mib.view import MibView

        calls = []
        intersection = MibView.intersection

        def counting(self, other):
            calls.append((self.paths(), other.paths()))
            return intersection(self, other)

        compiler = NmslCompiler()
        result = compiler.compile(self.SPEC)
        monkeypatch.setattr(MibView, "intersection", counting)
        bundle = compiler.generate("BartsSnmpd", result)
        assert len(calls) == len(set(calls)) == 2

        def views(name):
            lines = bundle.unit_for(name).text.splitlines()
            return [l.split()[-1] for l in lines if l.startswith("view ")]

        assert views("a") == views("b") == ["mgmt.mib.ip", "mgmt.mib.system"]
        assert views("c") == ["mgmt.mib.tcp"]
        assert views("d") == ["mgmt.mib"]  # no element view: the agent's own
