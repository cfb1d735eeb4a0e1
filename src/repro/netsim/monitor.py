"""Runtime verification: does the network adhere to its specification?

The paper's goal is both *specifying* and *verifying* — "a method for
verifying that these specifications are actually being adhered to in the
network."  The :class:`RuntimeVerifier` replays a management runtime's
query log against the frequency promises of the fact set's references,
the ones the checker verified:

* **client-side**: successive queries from one client instance to one
  agent must be at least the specified minimum period apart;
* **server-side**: the per-community rate enforcement installed by the
  prescriptive aspect should have flagged exactly those same violators
  (``rate-limited`` outcomes), which cross-checks the generated
  configuration against the independent observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.consistency.facts import FactSet
from repro.netsim.processes import QueryRecord


@dataclass
class Violation:
    """One observed departure from the specification."""

    client: str
    server_agent: str
    observed_interval_s: float
    promised_min_period_s: float
    at_time: float

    def describe(self) -> str:
        return (
            f"{self.client} queried {self.server_agent} after "
            f"{self.observed_interval_s:.1f}s; specification promises "
            f">= {self.promised_min_period_s:.1f}s (t={self.at_time:.1f})"
        )


@dataclass
class VerificationReport:
    """The verifier's verdict."""

    adheres: bool
    violations: List[Violation] = field(default_factory=list)
    checked_pairs: int = 0
    observed_queries: int = 0
    rate_limited_queries: int = 0
    violating_clients: Tuple[str, ...] = ()

    def render(self) -> str:
        if self.adheres:
            return (
                f"network adheres to specification "
                f"({self.observed_queries} queries over "
                f"{self.checked_pairs} client/agent pairs)"
            )
        lines = [
            f"network VIOLATES specification: {len(self.violations)} "
            f"violation(s) by {len(self.violating_clients)} client(s)"
        ]
        for violation in self.violations[:10]:
            lines.append("  " + violation.describe())
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


class RuntimeVerifier:
    """Compares observed behaviour with specified frequency promises."""

    def __init__(self, facts: FactSet):
        self._promises = self._collect_promises(facts)

    @staticmethod
    def _collect_promises(facts: FactSet) -> Dict[str, float]:
        """client instance id -> promised minimum query period (seconds):
        the least positive period among the client's references."""
        promises: Dict[str, float] = {}
        for reference in facts.references:
            period = reference.frequency.min_period
            if period <= 0:
                continue
            client = reference.client.partition(":")[2]
            current = promises.get(client)
            if current is None or period < current:
                promises[client] = period
        return promises

    def verify(
        self, log: Sequence[QueryRecord], tolerance: float = 1e-6
    ) -> VerificationReport:
        """Check every (client, agent) stream's inter-arrival times."""
        last_seen: Dict[Tuple[str, str], float] = {}
        violations: List[Violation] = []
        rate_limited = 0
        for record in sorted(log, key=lambda item: item.time):
            if record.outcome == "rate-limited":
                rate_limited += 1
            promised = self._promises.get(record.client)
            key = (record.client, record.server_agent)
            previous = last_seen.get(key)
            last_seen[key] = record.time
            if promised is None or previous is None:
                continue
            interval = record.time - previous
            if interval + tolerance < promised:
                violations.append(
                    Violation(
                        client=record.client,
                        server_agent=record.server_agent,
                        observed_interval_s=interval,
                        promised_min_period_s=promised,
                        at_time=record.time,
                    )
                )
        return VerificationReport(
            adheres=not violations,
            violations=violations,
            checked_pairs=len(last_seen),
            observed_queries=len(log),
            rate_limited_queries=rate_limited,
            violating_clients=tuple(
                sorted({violation.client for violation in violations})
            ),
        )

    def trap_summary(self, traps) -> Dict[str, Dict[str, int]]:
        """Aggregate the agents' unsolicited traps.

        Input is the runtime's ``traps`` list of (time, agent id,
        message); output maps agent id -> {trap name: count}.  Cold
        starts should match configuration installs; authentication
        failures point at misaddressed or unauthorized managers.
        """
        summary: Dict[str, Dict[str, int]] = {}
        for _time, agent_id, message in traps:
            name = message.pdu.generic_trap.name.lower()
            per_agent = summary.setdefault(agent_id, {})
            per_agent[name] = per_agent.get(name, 0) + 1
        return summary

    def cross_check_enforcement(
        self, log: Sequence[QueryRecord], report: VerificationReport
    ) -> List[str]:
        """Did server-side enforcement catch the observed violators?

        Returns discrepancy messages; empty means the generated
        configuration's rate limits agree with the independent
        observation.
        """
        limited_clients = {
            record.client
            for record in log
            if record.outcome == "rate-limited"
        }
        messages = []
        for client in report.violating_clients:
            if client not in limited_clients:
                messages.append(
                    f"violator {client} was never rate-limited by any agent "
                    "(enforcement gap)"
                )
        for client in sorted(limited_clients):
            if client not in report.violating_clients:
                messages.append(
                    f"{client} was rate-limited but no specification "
                    "violation was observed (over-enforcement)"
                )
        return messages
