"""Tests for the topology and delay model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.netsim.network import Internet
from repro.nmsl.compiler import NmslCompiler
from repro.workloads.scenarios import campus_internet


@pytest.fixture
def small():
    internet = Internet()
    internet.attach("a", "net1", 10_000_000)
    internet.attach("b", "net1", 10_000_000)
    internet.attach("b", "net2", 1_000_000)  # b is a gateway
    internet.attach("c", "net2", 1_000_000)
    return internet


class TestConstruction:
    def test_elements_and_networks(self, small):
        assert small.element_names() == ("a", "b", "c")
        assert small.network_names() == ("net1", "net2")

    def test_interface_speeds(self, small):
        assert small.element("b").speed_on("net1") == 10_000_000
        assert small.element("b").speed_on("net2") == 1_000_000
        assert small.element("a").speed_on("net2") == 0

    def test_unknown_element(self, small):
        with pytest.raises(SimulationError):
            small.element("ghost")

    def test_from_specification(self):
        compiler = NmslCompiler()
        result = compiler.compile(campus_internet())
        internet = Internet.from_specification(result.specification)
        assert "noc.campus.edu" in internet.element_names()
        assert "campus-backbone" in internet.network_names()
        # The cs gateway is multi-homed.
        gw = internet.element("gw.cs.campus.edu")
        assert len(gw.interfaces) == 2


class TestRouting:
    def test_same_network_single_hop(self, small):
        assert small.path_networks("a", "b") == ["net1"]

    def test_via_gateway(self, small):
        assert small.path_networks("a", "c") == ["net1", "net2"]

    def test_self_is_empty(self, small):
        assert small.path_networks("a", "a") == []

    def test_partitioned(self):
        internet = Internet()
        internet.attach("a", "net1", 10)
        internet.attach("b", "net2", 10)
        with pytest.raises(SimulationError, match="no route"):
            internet.path_networks("a", "b")

    def test_unknown_element_has_no_route(self, small):
        for src, dst in (("a", "ghost"), ("ghost", "a")):
            with pytest.raises(SimulationError, match="no route"):
                small.path_networks(src, dst)

    def test_tie_goes_to_the_first_attached_network(self):
        # Two two-hop paths from a to d; a joined netB before netA.
        internet = Internet()
        for element, network in (
            ("a", "netB"), ("a", "netA"), ("x", "netA"), ("x", "netC"),
            ("y", "netB"), ("y", "netC"), ("d", "netC"),
        ):
            internet.attach(element, network, 10)
        assert internet.path_networks("a", "d") == ["netB", "netC"]

    def test_runtime_subcommands_need_no_networkx(self):
        root = Path(__file__).resolve().parents[2]
        code = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from repro import cli\n"
            "for command in ('rollout', 'verify-runtime'):\n"
            "    assert cli.main([command, 'examples/campus.nmsl']) == 0\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestDelay:
    def test_zero_for_self(self, small):
        assert small.delay("a", "a", 100) == 0.0

    def test_single_hop_delay(self, small):
        # 1ms latency + 100 bytes * 8 / 10Mbps
        expected = 0.001 + 800 / 10_000_000
        assert small.delay("a", "b", 100) == pytest.approx(expected)

    def test_multi_hop_larger(self, small):
        assert small.delay("a", "c", 100) > small.delay("a", "b", 100)

    def test_bottleneck_speed_used(self, small):
        # a->c crosses the 1 Mbps segment.
        delay = small.delay("a", "c", 1000)
        assert delay > (1000 * 8) / 1_000_000

    def test_bytes_counted(self, small):
        small.delay("a", "c", 500)
        assert small.network("net1").bytes_carried == 500
        assert small.network("net2").bytes_carried == 500

    def test_utilisation_report(self, small):
        small.delay("a", "b", 1000)
        report = small.utilisation_report(duration_s=8.0)
        assert report["net1"] == pytest.approx(1000.0)
        assert report["net2"] == 0.0

    def test_bad_duration(self, small):
        with pytest.raises(SimulationError):
            small.utilisation_report(0)
