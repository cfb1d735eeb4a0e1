"""Tests for the compiler driver and output generation."""

import pytest

from repro.clpr.program import parse_program
from repro.errors import CodegenError
from repro.nmsl.compiler import CompilerOptions, NmslCompiler, compile_text
from repro.workloads.paper import PAPER_SPEC_TEXT


@pytest.fixture(scope="module")
def compiled():
    compiler = NmslCompiler()
    return compiler, compiler.compile(PAPER_SPEC_TEXT)


class TestCompile:
    def test_compile_text_helper(self):
        compiler, result = compile_text(PAPER_SPEC_TEXT)
        assert result.ok
        assert result.specification.counts()["systems"] == 2

    def test_declarations_preserved(self, compiled):
        compiler, result = compiled
        assert len(result.order) == 7
        assert result.order == [
            (declaration.decltype, declaration.name)
            for declaration in compiler.parse(PAPER_SPEC_TEXT)
        ]


class TestConsistencyOutput:
    def test_facts_parse_as_clpr_program(self, compiled):
        compiler, result = compiled
        text = compiler.generate("consistency", result).text()
        program = parse_program(text)
        assert len(program) > 20

    def test_type_facts(self, compiled):
        compiler, result = compiled
        text = compiler.generate("consistency", result).text()
        assert "nm_type(ipAddrTable)." in text
        assert "type_access(ipAddrTable, readonly)." in text

    def test_process_facts(self, compiled):
        compiler, result = compiled
        text = compiler.generate("consistency", result).text()
        assert "proc_supports(snmpdReadOnly, 'mgmt.mib')." in text
        assert (
            "proc_export(snmpdReadOnly, public, 'mgmt.mib', readonly, 300)."
            in text
        )
        assert "proc_query(snmpaddr, param(0)," in text

    def test_system_facts(self, compiled):
        compiler, result = compiled
        text = compiler.generate("consistency", result).text()
        assert "instance('snmpdReadOnly@romano.cs.wisc.edu#" in text
        assert "system_supports('romano.cs.wisc.edu', 'mgmt.mib.ip')." in text
        assert "speed('romano.cs.wisc.edu', 10000000)." in text

    def test_domain_facts(self, compiled):
        compiler, result = compiled
        text = compiler.generate("consistency", result).text()
        assert "contains(domain('wisc-cs'), system('romano.cs.wisc.edu'))." in text
        assert "dom_export('wisc-cs', public, 'mgmt.mib', readonly, 300)." in text

    def test_epilogue_facts(self, compiled):
        compiler, result = compiled
        text = compiler.generate("consistency", result).text()
        assert "data_covers('mgmt.mib', 'mgmt.mib.ip.ipAddrTable.IpAddrEntry')." in text
        assert "access_covers(readwrite, readonly)." in text

    def test_units_attributed_to_declarations(self, compiled):
        compiler, result = compiled
        bundle = compiler.generate("consistency", result)
        names = [unit.name for unit in bundle.units]
        assert "snmpdReadOnly" in names
        assert "wisc-cs" in names

    def test_unknown_tag_raises(self, compiled):
        compiler, result = compiled
        with pytest.raises(CodegenError, match="no output actions"):
            compiler.generate("nonexistent-tag", result)


class TestConfigurationOutput:
    def test_snmpd_tag_registered(self, compiled):
        compiler, result = compiled
        text = compiler.generate("BartsSnmpd", result).text()
        assert "snmpd.conf for romano.cs.wisc.edu" in text
        assert "community public view-snmpdReadOnly ReadOnly min-interval 300" in text

    def test_acl_table(self, compiled):
        compiler, result = compiled
        text = compiler.generate("acl-table", result).text()
        assert "instance:snmpdReadOnly@romano.cs.wisc.edu#1\tpublic" in text
        assert "domain:wisc-cs\tpublic" in text

    def test_osi_output(self, compiled):
        compiler, result = compiled
        text = compiler.generate("osi", result).text()
        assert "managementDomain wisc-cs {" in text
        assert "managedSystem romano.cs.wisc.edu;" in text
        assert "peerDomain public;" in text

    def test_tags_listed(self, compiled):
        compiler, _result = compiled
        tags = compiler.registry.tags()
        assert "consistency" in tags
        assert "BartsSnmpd" in tags
        assert "acl-table" in tags
        assert "osi" in tags
