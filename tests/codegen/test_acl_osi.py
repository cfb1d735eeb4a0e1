"""Tests for the acl-table and osi output types."""

from collections import Counter

import pytest

from repro.consistency.facts import FactGenerator
from repro.nmsl.compiler import NmslCompiler
from repro.workloads.paper import PAPER_SPEC_TEXT
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiled():
    compiler = NmslCompiler()
    return compiler, compiler.compile(PAPER_SPEC_TEXT)


class TestAclTable:
    def test_rows_tab_separated(self, compiled):
        compiler, result = compiled
        text = compiler.generate("acl-table", result).text()
        rows = [line for line in text.splitlines() if line]
        for row in rows:
            assert len(row.split("\t")) == 5

    def test_instance_grantor_rows(self, compiled):
        compiler, result = compiled
        text = compiler.generate("acl-table", result).text()
        assert (
            "instance:snmpdReadOnly@romano.cs.wisc.edu#1\tpublic\tmgmt.mib\t"
            "ReadOnly\t300" in text
        )

    def test_domain_grantor_rows(self, compiled):
        compiler, result = compiled
        text = compiler.generate("acl-table", result).text()
        assert "domain:wisc-cs\tpublic\tmgmt.mib\tReadOnly\t300" in text

    def test_processes_without_exports_skipped(self, compiled):
        compiler, result = compiled
        bundle = compiler.generate("acl-table", result)
        assert bundle.unit_for("snmpaddr") is None


def test_each_grant_once_under_its_own_grantor():
    """Grantors are read by exact key: domain ``cs`` beside
    ``cs-domain``, and ``snmpAgent@noc.campus.edu#1`` beside ``#10`` and
    ``#11``, each list only their own grants."""
    from tests.cli_sweep import edge_specs

    compiler = NmslCompiler()
    result = compiler.compile(edge_specs()["edge-prefix.nmsl"])
    facts = FactGenerator(result.specification, compiler.tree).generate()
    bundle = compiler.generate("acl-table", result)
    rows = [
        (unit, row.split("\t")[0])
        for unit in bundle.units
        for row in unit.text.splitlines()
    ]
    assert Counter(grantor for _unit, grantor in rows) == Counter(
        permission.grantor for permission in facts.permissions
    )
    for unit, grantor in rows:
        if unit.decltype == "domain":
            assert grantor == f"domain:{unit.name}"
        else:
            assert grantor in {
                f"instance:{instance.id}"
                for instance in facts.instances_of_process(unit.name)
            }
    assert [grantor for unit, grantor in rows if unit.name == "cs"] == [
        "domain:cs"
    ]
    assert len(facts.instances_on_system("noc.campus.edu")) == 11


class TestOsi:
    def test_domain_block(self, compiled):
        compiler, result = compiled
        text = compiler.generate("osi", result).text()
        assert "managementDomain wisc-cs {" in text
        assert "  managedSystem romano.cs.wisc.edu;" in text
        assert text.rstrip().endswith("}")

    def test_ports_per_permission(self, compiled):
        compiler, result = compiled
        text = compiler.generate("osi", result).text()
        # 2 agent exports (one per element) + 1 domain export = 3 ports.
        assert text.count("port p") == 3
        assert "peerDomain public;" in text
        assert "accessMode ReadOnly;" in text
        assert "minInterOperationTime 300;" in text

    def test_nested_domains_rendered(self):
        compiler = NmslCompiler()
        result = compiler.compile(campus_internet())
        text = compiler.generate("osi", result).text()
        assert "managementDomain campus {" in text
        assert "subDomain cs-domain;" in text
