"""Topology: elements, networks, and message delay.

An :class:`Internet` is a bipartite graph of elements and networks (an
element joins a network per interface).  Message delay between two
elements is the shortest path's accumulated per-network latency plus
transmission time (message size over the bottleneck interface speed).
Elements on a shared network are one hop; otherwise multi-homed elements
act as gateways, exactly how the paper's internets are stitched together.

Per-network byte counters support utilisation reporting (the speculative
"how much load will the new organization add" question).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.nmsl.specs import Specification, SystemSpec

DEFAULT_LATENCY_S = 0.001  # 1 ms per network hop


@dataclass
class SimNetwork:
    """A broadcast network (an Ethernet segment, say)."""

    name: str
    latency_s: float = DEFAULT_LATENCY_S
    bytes_carried: int = 0


@dataclass
class SimElement:
    """A network element: its interfaces name the networks it joins."""

    name: str
    interfaces: Dict[str, int] = field(default_factory=dict)  # network -> bps

    def speed_on(self, network: str) -> int:
        return self.interfaces.get(network, 0)


class Internet:
    """The element/network graph with delay computation."""

    def __init__(self):
        self._elements: Dict[str, SimElement] = {}
        self._networks: Dict[str, SimNetwork] = {}
        #: ("elem" | "net", name) -> its neighbours, in attach order.
        self._adjacency: Dict[Tuple[str, str], Dict[Tuple[str, str], None]] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def add_network(self, name: str, latency_s: float = DEFAULT_LATENCY_S) -> SimNetwork:
        if name not in self._networks:
            self._networks[name] = SimNetwork(name, latency_s)
            self._adjacency[("net", name)] = {}
        return self._networks[name]

    def add_element(self, name: str) -> SimElement:
        if name not in self._elements:
            self._elements[name] = SimElement(name)
            self._adjacency[("elem", name)] = {}
        return self._elements[name]

    def attach(self, element_name: str, network_name: str, speed_bps: int) -> None:
        element = self.add_element(element_name)
        self.add_network(network_name)
        element.interfaces[network_name] = speed_bps
        self._adjacency[("elem", element_name)][("net", network_name)] = None
        self._adjacency[("net", network_name)][("elem", element_name)] = None

    @classmethod
    def from_specification(cls, specification: Specification) -> "Internet":
        """Build the physical topology a specification describes."""
        internet = cls()
        for system in specification.systems.values():
            internet.add_element(system.name)
            for interface in system.interfaces:
                internet.attach(system.name, interface.network, interface.speed_bps)
        return internet

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def element(self, name: str) -> SimElement:
        if name not in self._elements:
            raise SimulationError(f"unknown element {name!r}")
        return self._elements[name]

    def network(self, name: str) -> SimNetwork:
        if name not in self._networks:
            raise SimulationError(f"unknown network {name!r}")
        return self._networks[name]

    def element_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._elements))

    def network_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._networks))

    # ------------------------------------------------------------------
    # Delay model.
    # ------------------------------------------------------------------
    def path_networks(self, src: str, dst: str) -> List[str]:
        """The networks a message crosses from *src* to *dst*: a shortest
        path, the one through the earliest attached neighbour on a tie."""
        if src == dst:
            return []
        start, goal = ("elem", src), ("elem", dst)
        parent = {start: start}
        queue = deque([start] if start in self._adjacency else [])
        while queue and goal not in parent:
            node = queue.popleft()
            for neighbour in self._adjacency[node]:
                if neighbour not in parent:
                    parent[neighbour] = node
                    queue.append(neighbour)
        if goal not in parent:
            raise SimulationError(f"no route from {src!r} to {dst!r}")
        path = [goal]
        while path[-1] != start:
            path.append(parent[path[-1]])
        return [name for kind, name in reversed(path) if kind == "net"]

    def delay(self, src: str, dst: str, nbytes: int) -> float:
        """Latency + transmission time for *nbytes* from *src* to *dst*.

        Transmission uses the slowest interface speed along the path
        (the bottleneck); each crossed network contributes its latency
        and counts the bytes.
        """
        networks = self.path_networks(src, dst)
        if not networks:
            return 0.0
        total_latency = 0.0
        bottleneck_bps: Optional[int] = None
        for network_name in networks:
            network = self._networks[network_name]
            network.bytes_carried += nbytes
            total_latency += network.latency_s
            for element_name in (src, dst):
                speed = self._elements[element_name].speed_on(network_name)
                if speed:
                    if bottleneck_bps is None or speed < bottleneck_bps:
                        bottleneck_bps = speed
        transmission = 0.0
        if bottleneck_bps:
            transmission = (nbytes * 8) / bottleneck_bps * len(networks)
        return total_latency + transmission

    def utilisation_report(self, duration_s: float) -> Dict[str, float]:
        """Average bits/second carried per network over *duration_s*."""
        if duration_s <= 0:
            raise SimulationError("duration must be positive")
        return {
            name: network.bytes_carried * 8 / duration_s
            for name, network in sorted(self._networks.items())
        }
