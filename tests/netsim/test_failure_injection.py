"""Failure injection: lossy networks and what the verifier makes of them."""

import pytest

from repro.errors import SimulationError
from repro.netsim.monitor import RuntimeVerifier
from repro.netsim.processes import ManagementRuntime
from repro.nmsl.compiler import NmslCompiler
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler()


def make_runtime(compiler):
    runtime = ManagementRuntime(compiler, compiler.compile(campus_internet()))
    runtime.install_configuration()
    return runtime


class TestLoss:
    def test_losses_logged(self, compiler):
        runtime = make_runtime(compiler)
        runtime.start(duration_s=7200, loss_rate=0.3, seed=42)
        runtime.run(7200)
        outcomes = runtime.outcomes()
        assert outcomes.get("lost", 0) > 0
        assert outcomes.get("ok", 0) > 0
        total = sum(outcomes.values())
        assert 0.1 < outcomes["lost"] / total < 0.5

    def test_loss_is_deterministic_per_seed(self, compiler):
        first = make_runtime(compiler)
        first.start(duration_s=3600, loss_rate=0.2, seed=7)
        first.run(3600)
        second = make_runtime(compiler)
        second.start(duration_s=3600, loss_rate=0.2, seed=7)
        second.run(3600)
        assert first.outcomes() == second.outcomes()

    def test_zero_loss_default(self, compiler):
        runtime = make_runtime(compiler)
        runtime.start(duration_s=1800)
        runtime.run(1800)
        assert "lost" not in runtime.outcomes()

    def test_invalid_loss_rate(self, compiler):
        runtime = make_runtime(compiler)
        with pytest.raises(SimulationError):
            runtime.start(duration_s=10, loss_rate=1.5)

    def test_lossy_wellbehaved_network_still_adheres(self, compiler):
        """Losing requests never makes an honest client look like a
        violator — lost sends still count as client activity."""
        runtime = make_runtime(compiler)
        runtime.start(duration_s=7200, loss_rate=0.3, seed=11)
        runtime.run(7200)
        verifier = RuntimeVerifier(runtime.facts)
        report = verifier.verify(runtime.log)
        assert report.adheres

    def test_lossy_violator_still_detected(self, compiler):
        runtime = make_runtime(compiler)
        bad = next(
            driver.instance.id
            for driver in runtime.drivers
            if driver.instance.process_name == "nocMonitor"
        )
        runtime.start(
            duration_s=7200, misbehaving={bad: 60.0}, loss_rate=0.3, seed=11
        )
        runtime.run(7200)
        verifier = RuntimeVerifier(runtime.facts)
        report = verifier.verify(runtime.log)
        assert not report.adheres
        assert bad in report.violating_clients
