"""Trap-directed monitoring: the verifier consumes agent traps."""

import pytest

from repro.netsim.monitor import RuntimeVerifier
from repro.netsim.processes import ManagementRuntime
from repro.nmsl.compiler import NmslCompiler
from repro.snmp.messages import GenericTrap
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler()


class TestTrapSummary:
    def test_cold_starts_match_installs(self, compiler):
        runtime = ManagementRuntime(compiler, compiler.compile(campus_internet()))
        configured = runtime.install_configuration()
        verifier = RuntimeVerifier(runtime.facts)
        summary = verifier.trap_summary(runtime.traps)
        assert sum(
            counts.get("cold_start", 0) for counts in summary.values()
        ) == configured

    def test_auth_failures_traced_to_agent(self, compiler):
        runtime = ManagementRuntime(compiler, compiler.compile(campus_internet()))
        runtime.install_configuration()
        agent_id, agent = next(iter(runtime.agents.items()))
        from repro.snmp.manager import SnmpManager
        from repro.errors import SnmpError

        stranger = SnmpManager("intruder", agent.handle_octets)
        for _attempt in range(3):
            with pytest.raises(SnmpError):
                stranger.get(["1.3.6.1.2.1.1.1.0"])
        verifier = RuntimeVerifier(runtime.facts)
        summary = verifier.trap_summary(runtime.traps)
        assert summary[agent_id]["authentication_failure"] == 3

    def test_empty_traps(self, compiler):
        runtime = ManagementRuntime(compiler, compiler.compile(campus_internet()))
        verifier = RuntimeVerifier(runtime.facts)
        assert verifier.trap_summary([]) == {}
