"""Tests for pass-2 semantic checking and typed-spec construction."""

import pytest

from repro.errors import NmslSemanticError
from repro.mib.tree import Access
from repro.nmsl.compiler import NmslCompiler, CompilerOptions
from repro.workloads.paper import PAPER_SPEC_TEXT


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


@pytest.fixture(scope="module")
def paper(compiler):
    return compiler.compile(PAPER_SPEC_TEXT)


class TestPaperTypes:
    def test_both_types_built(self, paper):
        assert set(paper.specification.types) == {"ipAddrTable", "IpAddrEntry"}

    def test_access_clause(self, paper):
        assert paper.specification.types["ipAddrTable"].access is Access.READ_ONLY

    def test_access_inherited_is_none(self, paper):
        assert paper.specification.types["IpAddrEntry"].access is None

    def test_asn1_body_parsed(self, paper):
        entry = paper.specification.types["IpAddrEntry"].asn1_type
        assert entry.field_names() == (
            "ipAdEntAddr",
            "ipAdEntIfIndex",
            "ipAdEntNetMask",
            "ipAdEntBcastAddr",
        )


class TestPaperProcesses:
    def test_agent_and_application(self, paper):
        agent = paper.specification.processes["snmpdReadOnly"]
        app = paper.specification.processes["snmpaddr"]
        assert agent.is_agent() and not agent.is_application()
        assert app.is_application() and not app.is_agent()

    def test_agent_supports_full_mib(self, paper):
        agent = paper.specification.processes["snmpdReadOnly"]
        assert agent.supports == ("mgmt.mib",)

    def test_agent_export(self, paper):
        export = paper.specification.processes["snmpdReadOnly"].exports[0]
        assert export.to_domain == "public"
        assert export.access is Access.READ_ONLY
        assert export.frequency.min_period == 300

    def test_application_params(self, paper):
        app = paper.specification.processes["snmpaddr"]
        assert app.params == (("SysAddr", "Process"), ("Dest", "IpAddress"))

    def test_application_query(self, paper):
        query = paper.specification.processes["snmpaddr"].queries[0]
        assert query.target == "SysAddr"
        assert query.requests == ("mgmt.mib.ip.ipAddrTable.IpAddrEntry",)
        assert query.frequency.min_period == 3600

    def test_wrapped_using_path_joined(self, paper):
        query = paper.specification.processes["snmpaddr"].queries[0]
        assert query.using == (
            ("mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr", "Dest"),
        )


class TestPaperSystem:
    def test_hardware(self, paper):
        system = paper.specification.systems["romano.cs.wisc.edu"]
        assert system.cpu == "sparc"
        interface = system.interfaces[0]
        assert interface.name == "ie0"
        assert interface.network == "wisc-research"
        assert interface.if_type == "ethernet-csmacd"
        assert interface.speed_bps == 10_000_000

    def test_software(self, paper):
        system = paper.specification.systems["romano.cs.wisc.edu"]
        assert system.opsys == "SunOS"
        assert system.opsys_version == "4.0.1"

    def test_supports_excludes_egp(self, paper):
        system = paper.specification.systems["romano.cs.wisc.edu"]
        assert "mgmt.mib.egp" not in system.supports
        assert len(system.supports) == 7

    def test_process_invocation(self, paper):
        system = paper.specification.systems["romano.cs.wisc.edu"]
        assert system.processes[0].process_name == "snmpdReadOnly"
        assert system.processes[0].args == ()


class TestPaperDomain:
    def test_members(self, paper):
        domain = paper.specification.domains["wisc-cs"]
        assert domain.systems == ("romano.cs.wisc.edu", "cs.wisc.edu")

    def test_wildcard_invocation(self, paper):
        domain = paper.specification.domains["wisc-cs"]
        invocation = domain.processes[0]
        assert invocation.process_name == "snmpaddr"
        assert invocation.args == ("*", "*")

    def test_domain_export(self, paper):
        export = paper.specification.domains["wisc-cs"].exports[0]
        assert export.variables == ("mgmt.mib",)
        assert export.frequency.min_period == 300


class TestSemanticErrors:
    def fails_with(self, compiler, text, pattern):
        with pytest.raises(NmslSemanticError, match=pattern):
            compiler.compile(text)

    def test_unknown_mib_path(self, compiler):
        self.fails_with(
            compiler,
            "process p ::= supports mgmt.mib.nosuch; end process p.",
            "unknown MIB path",
        )

    def test_duplicate_specification(self, compiler):
        self.fails_with(
            compiler,
            "process p ::= supports mgmt.mib; end process p. "
            "process p ::= supports mgmt.mib; end process p.",
            "duplicate process",
        )

    def test_bad_access_mode(self, compiler):
        self.fails_with(
            compiler,
            'process p ::= supports mgmt.mib; '
            'exports mgmt.mib to "x" access Sometimes frequency infrequent; '
            "end process p.",
            "unknown access mode",
        )

    def test_exports_missing_to(self, compiler):
        self.fails_with(
            compiler,
            "process p ::= exports mgmt.mib access ReadOnly; end process p.",
            "missing 'to",
        )

    def test_queries_missing_requests(self, compiler):
        self.fails_with(
            compiler,
            "process p(T: Process) ::= queries T frequency infrequent; "
            "end process p.",
            "requests nothing",
        )

    def test_bad_frequency_unit(self, compiler):
        self.fails_with(
            compiler,
            "process p(T: Process) ::= queries T requests mgmt.mib "
            "frequency >= 5 days; end process p.",
            "unknown time unit",
        )

    def test_unknown_invoked_process(self, compiler):
        self.fails_with(
            compiler,
            'system "s" ::= cpu x; interface i net n type t speed 1 bps; '
            'opsys o version 1; process ghost; end system "s".',
            "unknown process 'ghost'",
        )

    def test_wrong_invocation_arity(self, compiler):
        self.fails_with(
            compiler,
            "process p(A: Process) ::= queries A requests mgmt.mib "
            "frequency infrequent; end process p. "
            "domain d ::= process p(x, y); end domain d.",
            "declares 1 parameters",
        )

    def test_unknown_domain_member_system(self, compiler):
        self.fails_with(
            compiler,
            "domain d ::= system ghost.example.com; end domain d.",
            "unknown system",
        )

    def test_domain_cycle(self, compiler):
        self.fails_with(
            compiler,
            "domain a ::= domain b; end domain a. "
            "domain b ::= domain a; end domain b.",
            "cycle",
        )

    def test_domain_cycle_messages(self, compiler):
        result = compiler.compile(
            "domain a ::= domain b; end domain a. "
            "domain b ::= domain c; end domain b. "
            "domain c ::= domain a; domain d; end domain c. "
            "domain d ::= domain d; end domain d.",
            strict=False,
        )
        assert [error.message for error in result.report.errors] == [
            "domain containment cycle: a -> b -> c -> a",
            "domain containment cycle: a -> b -> c -> d -> d",
        ]

    def test_deep_containment_chain(self, compiler):
        """Deeper than the recursion limit: the walk keeps its own stack."""
        depth = 5_000
        chain = "".join(
            f"domain d{i} ::= domain d{i + 1}; end domain d{i}.\n"
            for i in range(depth - 1)
        )
        leaf = f"domain d{depth - 1} ::= system s; end domain d{depth - 1}.\n"
        system = "system s ::= cpu x; end system s.\n"
        result = compiler.compile(chain + leaf + system)
        assert not result.report.errors
        assert len(result.specification.domains) == depth
        closed = f"domain d{depth - 1} ::= domain d0; end domain d{depth - 1}.\n"
        (error,) = compiler.compile(chain + closed, strict=False).report.errors
        names = " -> ".join(f"d{i}" for i in range(depth))
        assert error.message == f"domain containment cycle: {names} -> d0"

    @pytest.mark.parametrize("speed", ["-10000000", "-1"])
    def test_negative_interface_speed(self, compiler, speed):
        result = compiler.compile(
            "system s ::=\n  cpu x;\n"
            f"  interface ie0 net n type ethernet speed {speed} bps;\n"
            "end system s.",
            strict=False,
        )
        (error,) = result.report.errors
        assert error.message == f"speed must not be negative, found {speed!r}"
        assert (error.location.line, error.location.column) == (3, 3)

    def test_zero_speed_means_undeclared(self, compiler):
        result = compiler.compile(
            "system s ::= cpu x; interface ie0 net n speed 0 bps; end system s."
        )
        assert result.specification.systems["s"].total_speed_bps() == 0

    def test_query_target_not_param_or_process(self, compiler):
        self.fails_with(
            compiler,
            "process p ::= queries ghost requests mgmt.mib "
            "frequency infrequent; end process p.",
            "unknown target",
        )

    def test_malformed_parameter(self, compiler):
        self.fails_with(
            compiler,
            "process p(Broken) ::= supports mgmt.mib; end process p.",
            "malformed parameter",
        )

    def test_type_with_bad_asn1(self, compiler):
        self.fails_with(
            compiler,
            "type T ::= SEQUENCE { a }; end type T.",
            "invalid ASN.1 body",
        )

    def test_unknown_clause_keyword(self, compiler):
        self.fails_with(
            compiler,
            "process p ::= gyrates wildly; end process p.",
            "not valid in a process",
        )

    def test_lax_mode_collects_errors(self, compiler):
        result = compiler.compile(
            "process p ::= supports mgmt.mib.nosuch, mgmt.mib.alsobad; "
            "end process p.",
            strict=False,
        )
        assert len(result.report.errors) == 2


class TestWarnings:
    def test_foreign_export_domain_warns(self, compiler):
        result = compiler.compile(
            'process p ::= supports mgmt.mib; exports mgmt.mib to "elsewhere" '
            "access ReadOnly frequency >= 5 minutes; end process p.",
        )
        assert any("foreign" in warning for warning in result.report.warnings)

    def test_public_domain_never_warns(self, compiler):
        result = compiler.compile(
            'process p ::= supports mgmt.mib; exports mgmt.mib to "public" '
            "access ReadOnly frequency >= 5 minutes; end process p.",
        )
        assert not result.report.warnings
