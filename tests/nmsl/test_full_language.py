"""The full-language features: modifies/executes queries, proxies,
recursive queries (paper Sections 3.1 and 4.1.3)."""

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.oracles import check_with_clpr
from repro.consistency.facts import FactGenerator
from repro.consistency.report import InconsistencyKind
from repro.errors import NmslSemanticError
from repro.mib.tree import Access
from repro.nmsl.compiler import CompilerOptions, NmslCompiler


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


def _element(name, agent="agent", extra=""):
    return f"""
system "{name}" ::=
    cpu sparc;
    interface ie0 net shared type ethernet-csmacd speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports mgmt.mib.system, mgmt.mib.interfaces, mgmt.mib.ip;
{extra}    process {agent};
end system "{name}".
"""


class TestModifies:
    def test_modifies_parses_with_readwrite_access(self, compiler):
        result = compiler.compile(
            """
process setter(T: Process) ::=
    queries T
        modifies mgmt.mib.interfaces.ifTable.IfEntry.ifAdminStatus
        frequency infrequent;
end process setter.
"""
        )
        query = result.specification.processes["setter"].queries[0]
        assert query.kind == "modifies"
        assert query.access is Access.READ_WRITE

    def test_modifies_readonly_object_rejected(self, compiler):
        with pytest.raises(NmslSemanticError, match="no writable objects"):
            compiler.compile(
                """
process setter(T: Process) ::=
    queries T
        modifies mgmt.mib.system.sysDescr
        frequency infrequent;
end process setter.
"""
            )

    def test_modifies_subtree_with_writable_leaf_ok(self, compiler):
        result = compiler.compile(
            """
process setter(T: Process) ::=
    queries T modifies mgmt.mib.at frequency infrequent;
end process setter.
"""
        )
        assert result.ok

    def test_modify_against_readonly_export_inconsistent(self, compiler):
        text = """
process agent ::= supports mgmt.mib.system, mgmt.mib.interfaces, mgmt.mib.ip;
end process agent.
""" + _element("server.example") + """
process setter(T: Process) ::=
    queries T
        modifies mgmt.mib.interfaces.ifTable.IfEntry.ifAdminStatus
        frequency infrequent;
end process setter.
domain servers ::=
    system server.example;
    exports mgmt.mib to clients access ReadOnly frequency >= 5 minutes;
end domain servers.
domain clients ::= process setter(server.example); end domain clients.
"""
        outcome = ConsistencyChecker(
            compiler.compile(text).specification, compiler.tree
        ).check()
        assert outcome.kinds() == [InconsistencyKind.ACCESS_EXCEEDED]

    def test_modify_against_readwrite_export_ok(self, compiler):
        text = """
process agent ::= supports mgmt.mib.system, mgmt.mib.interfaces, mgmt.mib.ip;
end process agent.
""" + _element("server.example") + """
process setter(T: Process) ::=
    queries T
        modifies mgmt.mib.interfaces.ifTable.IfEntry.ifAdminStatus
        frequency infrequent;
end process setter.
domain servers ::=
    system server.example;
    exports mgmt.mib to clients access ReadWrite frequency >= 5 minutes;
end domain servers.
domain clients ::= process setter(server.example); end domain clients.
"""
        outcome = ConsistencyChecker(
            compiler.compile(text).specification, compiler.tree
        ).check()
        assert outcome.consistent


class TestExecutes:
    def test_executes_parses_with_any_access(self, compiler):
        result = compiler.compile(
            """
process rebooter(T: Process) ::=
    queries T executes mgmt.mib.system.sysUpTime frequency infrequent;
end process rebooter.
"""
        )
        query = result.specification.processes["rebooter"].queries[0]
        assert query.kind == "executes"
        assert query.access is Access.ANY

    def test_only_one_interaction_kind_per_clause(self, compiler):
        with pytest.raises(NmslSemanticError, match="only one of"):
            compiler.compile(
                """
process confused(T: Process) ::=
    queries T requests mgmt.mib.system
        modifies mgmt.mib.at frequency infrequent;
end process confused.
"""
            )


PROXY_TEXT = """
process bridgeProxy ::=
    supports mgmt.mib.interfaces, mgmt.mib.system;
    proxies bridge1.example via bridgeTalk;
    exports mgmt.mib.interfaces to clients
        access ReadOnly
        frequency >= 5 minutes;
end process bridgeProxy.

system "proxyhost.example" ::=
    cpu sparc;
    interface ie0 net shared type ethernet-csmacd speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports mgmt.mib.system, mgmt.mib.interfaces, mgmt.mib.ip;
    process bridgeProxy;
end system "proxyhost.example".

system "bridge1.example" ::=
    cpu z80;
    interface p0 net shared type ethernet-csmacd speed 10000000 bps;
    opsys firmware version 2;
    supports mgmt.mib.interfaces;
end system "bridge1.example".

process watcher(T: Process) ::=
    queries T requests mgmt.mib.interfaces frequency >= 10 minutes;
end process watcher.

domain servers ::=
    system proxyhost.example;
    system bridge1.example;
end domain servers.
domain clients ::= process watcher(bridge1.example); end domain clients.
"""


class TestProxies:
    def test_proxy_clause_parses(self, compiler):
        result = compiler.compile(PROXY_TEXT)
        proxy_process = result.specification.processes["bridgeProxy"]
        assert proxy_process.is_proxy()
        (proxy,) = proxy_process.proxies
        assert proxy.target_system == "bridge1.example"
        assert proxy.protocol == "bridgeTalk"

    def test_unknown_proxied_element_rejected(self, compiler):
        with pytest.raises(NmslSemanticError, match="proxies unknown element"):
            compiler.compile(
                "process p ::= supports mgmt.mib; proxies ghost.example; "
                "end process p."
            )

    def test_reference_to_proxied_element_covered(self, compiler):
        """bridge1 has no agent; the proxy answers, and its export covers."""
        spec = compiler.compile(PROXY_TEXT).specification
        outcome = ConsistencyChecker(spec, compiler.tree).check()
        assert outcome.consistent

    def test_clpr_path_agrees_on_proxy(self, compiler):
        spec = compiler.compile(PROXY_TEXT).specification
        assert check_with_clpr(spec, compiler.tree).consistent

    def test_without_proxy_no_server(self, compiler):
        text = PROXY_TEXT.replace("    proxies bridge1.example via bridgeTalk;\n", "")
        spec = compiler.compile(text).specification
        outcome = ConsistencyChecker(spec, compiler.tree).check()
        assert outcome.kinds() == [InconsistencyKind.NO_SERVER]

    def test_proxied_data_must_be_on_proxied_element(self, compiler):
        """Requesting the ip group: the proxy could translate it, but the
        bridge itself only supports interfaces."""
        text = PROXY_TEXT.replace(
            "    queries T requests mgmt.mib.interfaces frequency >= 10 minutes;",
            "    queries T requests mgmt.mib.ip frequency >= 10 minutes;",
        ).replace(
            "    exports mgmt.mib.interfaces to clients",
            "    exports mgmt.mib.ip to clients",
        )
        spec = compiler.compile(text).specification
        outcome = ConsistencyChecker(spec, compiler.tree).check()
        assert not outcome.consistent
        assert outcome.kinds()[0] in (
            InconsistencyKind.UNSUPPORTED_BY_ELEMENT,
            InconsistencyKind.UNSUPPORTED_BY_PROCESS,
        )

    def test_proxy_facts_emitted(self, compiler):
        result = compiler.compile(PROXY_TEXT)
        facts = FactGenerator(result.specification, compiler.tree).generate()
        text = facts.to_clpr_text()
        assert (
            "proxy_for(bridgeProxy, system('bridge1.example'), bridgeTalk)."
            in text
        )

    def test_proxies_for_system_lookup(self, compiler):
        result = compiler.compile(PROXY_TEXT)
        facts = FactGenerator(result.specification, compiler.tree).generate()
        (proxy_instance,) = facts.proxies_for_system("bridge1.example")
        assert proxy_instance.process_name == "bridgeProxy"

    def test_snmpd_config_lists_proxy(self):
        full_compiler = NmslCompiler()
        result = full_compiler.compile(PROXY_TEXT)
        bundle = full_compiler.generate("BartsSnmpd", result)
        text = bundle.unit_for("proxyhost.example").text
        assert "proxy-for bridge1.example via bridgeTalk" in text


class TestRecursiveQueries:
    """One server queries another to process the query (Section 3.1):
    a process may both support data and issue queries."""

    TEXT = """
process leafAgent ::= supports mgmt.mib.system, mgmt.mib.interfaces,
    mgmt.mib.ip;
end process leafAgent.

process summarizer(Backend: Process) ::=
    supports mgmt.mib.system;
    exports mgmt.mib.system to "public"
        access ReadOnly
        frequency >= 5 minutes;
    queries Backend
        requests mgmt.mib.interfaces
        frequency >= 5 minutes;
end process summarizer.
""" + _element("leaf.example", agent="leafAgent") + _element(
        "mid.example", agent="summarizer(leaf.example)"
    ) + """
process client(T: Process) ::=
    queries T requests mgmt.mib.system frequency infrequent;
end process client.

domain leaves ::=
    system leaf.example;
    exports mgmt.mib to middle access ReadOnly frequency >= 5 minutes;
end domain leaves.
domain middle ::=
    system mid.example;
end domain middle.
domain clients ::= process client(mid.example); end domain clients.
"""

    def test_summarizer_is_both_agent_and_client(self, compiler):
        spec = compiler.compile(self.TEXT).specification
        summarizer = spec.processes["summarizer"]
        assert summarizer.is_agent()
        assert summarizer.queries  # also a client

    def test_recursive_chain_consistent(self, compiler):
        spec = compiler.compile(self.TEXT).specification
        outcome = ConsistencyChecker(spec, compiler.tree).check()
        assert outcome.consistent

    def test_breaking_backend_permission_breaks_chain(self, compiler):
        text = self.TEXT.replace(
            "    exports mgmt.mib to middle access ReadOnly frequency >= 5 minutes;\n",
            "",
        )
        spec = compiler.compile(text).specification
        outcome = ConsistencyChecker(spec, compiler.tree).check()
        assert not outcome.consistent
        assert outcome.inconsistencies[0].reference.origin.startswith(
            "process summarizer"
        )
