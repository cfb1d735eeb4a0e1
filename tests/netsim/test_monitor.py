"""Tests for the runtime verifier."""

import pytest

from repro.netsim.monitor import RuntimeVerifier
from repro.netsim.processes import ManagementRuntime, QueryRecord
from repro.nmsl.compiler import NmslCompiler
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler()


@pytest.fixture
def runtime(compiler):
    result = compiler.compile(campus_internet())
    runtime = ManagementRuntime(compiler, result)
    runtime.install_configuration()
    return runtime


def verifier_for(runtime):
    return RuntimeVerifier(runtime.facts)


class TestAdherence:
    def test_clean_run_adheres(self, runtime):
        runtime.start(duration_s=3600)
        runtime.run(3600)
        report = verifier_for(runtime).verify(runtime.log)
        assert report.adheres
        assert report.observed_queries == len(runtime.log)
        assert report.checked_pairs == 5
        assert "adheres" in report.render()

    def test_misbehaving_client_detected(self, runtime):
        bad = next(
            driver.instance.id
            for driver in runtime.drivers
            if driver.instance.process_name == "nocMonitor"
        )
        runtime.start(duration_s=3600, misbehaving={bad: 60.0})
        runtime.run(3600)
        report = verifier_for(runtime).verify(runtime.log)
        assert not report.adheres
        assert report.violating_clients == (bad,)
        assert "VIOLATES" in report.render()

    def test_violation_details(self, runtime):
        bad = next(
            driver.instance.id
            for driver in runtime.drivers
            if driver.instance.process_name == "nocMonitor"
        )
        runtime.start(duration_s=1800, misbehaving={bad: 60.0})
        runtime.run(1800)
        report = verifier_for(runtime).verify(runtime.log)
        violation = report.violations[0]
        assert violation.observed_interval_s == pytest.approx(60.0, abs=1.0)
        assert violation.promised_min_period_s == 300.0
        assert "queried" in violation.describe()


class TestCrossCheck:
    def test_enforcement_agrees_with_observation(self, runtime):
        bad = next(
            driver.instance.id
            for driver in runtime.drivers
            if driver.instance.process_name == "nocMonitor"
        )
        runtime.start(duration_s=3600, misbehaving={bad: 60.0})
        runtime.run(3600)
        verifier = verifier_for(runtime)
        report = verifier.verify(runtime.log)
        assert verifier.cross_check_enforcement(runtime.log, report) == []

    def test_enforcement_gap_reported(self, runtime):
        """An intra-domain violator is trusted (no rate limit installed),
        so the verifier sees violations the agents never flagged."""
        bad = next(
            driver.instance.id
            for driver in runtime.drivers
            if driver.instance.process_name == "linkWatcher"
        )
        runtime.start(duration_s=1800, misbehaving={bad: 10.0})
        runtime.run(1800)
        verifier = verifier_for(runtime)
        report = verifier.verify(runtime.log)
        assert not report.adheres
        messages = verifier.cross_check_enforcement(runtime.log, report)
        assert any("enforcement gap" in message for message in messages)


class TestSyntheticLogs:
    def test_tolerance_boundary(self, runtime):
        verifier = verifier_for(runtime)
        client = runtime.drivers[0].instance.id
        agent = runtime.drivers[0].target_agent.id
        promised = runtime.drivers[0].period_s
        log = [
            QueryRecord(0.0, client, "e", agent, "c", "p", "ok"),
            QueryRecord(promised, client, "e", agent, "c", "p", "ok"),
        ]
        assert verifier.verify(log).adheres

    def test_unknown_clients_ignored(self, runtime):
        verifier = verifier_for(runtime)
        log = [
            QueryRecord(0.0, "stranger", "e", "a", "c", "p", "ok"),
            QueryRecord(0.1, "stranger", "e", "a", "c", "p", "ok"),
        ]
        assert verifier.verify(log).adheres
