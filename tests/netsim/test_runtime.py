"""Tests for the management runtime (spec -> live simulated managers)."""

import pytest

from repro.nmsl.compiler import NmslCompiler
from repro.netsim.processes import ManagementRuntime
from repro.workloads.paper import PAPER_SPEC_TEXT
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler()


@pytest.fixture
def campus_runtime(compiler):
    result = compiler.compile(campus_internet())
    return ManagementRuntime(compiler, result)


class TestConstruction:
    def test_agents_built_per_agent_instance(self, campus_runtime):
        assert len(campus_runtime.agents) == 5  # one snmpAgent per element

    def test_drivers_built_per_query(self, campus_runtime):
        # 4 nocMonitor instances + 1 linkWatcher.
        assert len(campus_runtime.drivers) == 5

    def test_driver_periods_match_spec(self, campus_runtime):
        periods = sorted({driver.period_s for driver in campus_runtime.drivers})
        assert periods == [60.0, 300.0]

    def test_agent_stores_populated(self, campus_runtime):
        agent = next(iter(campus_runtime.agents.values()))
        assert len(agent.store) > 50  # scalars + identity rows

    def test_paper_spec_builds(self, compiler):
        result = compiler.compile(PAPER_SPEC_TEXT)
        runtime = ManagementRuntime(compiler, result)
        assert len(runtime.agents) == 2
        assert len(runtime.drivers) == 1  # the wildcard snmpaddr


class TestConfiguration:
    def test_install_configures_all_agents(self, campus_runtime):
        assert campus_runtime.install_configuration() == 5

    def test_agents_enforce_installed_policy(self, campus_runtime):
        campus_runtime.install_configuration()
        agent = campus_runtime.agents["snmpAgent@gw.cs.campus.edu#1"]
        assert "noc-domain" in agent.policy.communities()
        assert "cs-domain" in agent.policy.communities()

    @pytest.mark.parametrize("via_protocol", [False, True])
    def test_each_agent_runs_its_elements_whole_document(
        self, campus_runtime, via_protocol
    ):
        # acl-table gives every campus element two output units.
        configured = campus_runtime.install_configuration(
            "acl-table", via_protocol=via_protocol
        )
        targets = campus_runtime.rollout_targets("acl-table")
        assert configured == len(targets) == 5
        for target, text in targets.items():
            agent = campus_runtime.target_agent(target)
            assert agent.last_good_config == text, target


class TestExecution:
    def test_clean_run_all_ok(self, campus_runtime):
        campus_runtime.install_configuration()
        campus_runtime.start(duration_s=1800)
        campus_runtime.run(1800)
        outcomes = campus_runtime.outcomes()
        assert set(outcomes) == {"ok"}
        # 4 monitors at 300s (5 each to t=1500... plus 1800) + watcher at 60s.
        assert outcomes["ok"] > 30

    def test_unconfigured_agents_deny(self, campus_runtime):
        # Without install_configuration, agents have empty policies.
        campus_runtime.start(duration_s=600)
        campus_runtime.run(600)
        assert set(campus_runtime.outcomes()) == {"denied"}

    def test_query_log_records_delay(self, campus_runtime):
        campus_runtime.install_configuration()
        campus_runtime.start(duration_s=600)
        campus_runtime.run(600)
        assert all(record.delay_s >= 0 for record in campus_runtime.log)
        cross = [
            record
            for record in campus_runtime.log
            if record.client.startswith("nocMonitor")
        ]
        assert all(record.delay_s > 0 for record in cross)

    def test_misbehaving_manager_rate_limited(self, campus_runtime):
        campus_runtime.install_configuration()
        bad = next(
            driver.instance.id
            for driver in campus_runtime.drivers
            if driver.instance.process_name == "nocMonitor"
        )
        campus_runtime.start(duration_s=3600, misbehaving={bad: 60.0})
        campus_runtime.run(3600)
        outcomes = campus_runtime.outcomes()
        assert outcomes.get("rate-limited", 0) > 0

    def test_network_carries_traffic(self, campus_runtime):
        campus_runtime.install_configuration()
        campus_runtime.start(duration_s=600)
        campus_runtime.run(600)
        report = campus_runtime.internet.utilisation_report(600)
        assert report["campus-backbone"] > 0
