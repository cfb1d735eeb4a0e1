"""The management runtime: a compiled specification, running.

:class:`ManagementRuntime` turns a typed Specification into live simulated
processes.  It re-derives nothing the checker and the Configuration
Generator already decide:

* each *agent* instance becomes an :class:`~repro.snmp.agent.SnmpAgent`
  with an instance store populated over its effective view (process
  supports ∩ element supports);
* the prescriptive loop installs, rolls out and heals each element's
  one document, :meth:`ConfigurationGenerator.documents
  <repro.codegen.base.ConfigurationGenerator.documents>` (``BartsSnmpd``
  by default), into every agent on the element — directly, or with
  SNMP Sets over the management protocol;
* each reference in the checked fact set becomes a periodic query
  driver aimed at the first system agent that
  :func:`~repro.consistency.causes.candidate_servers` names for it, so
  the simulated managers run exactly the references the checker
  verified, at their specified frequency — or faster, when a
  misbehaving manager is injected;
* every query is logged as a :class:`QueryRecord` for the runtime
  verifier.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs, operations
from repro.asn1.types import Asn1Module
from repro.codegen.base import ConfigurationGenerator
from repro.consistency.causes import (
    candidate_servers,
    instance_by_tag,
    permissions_for_server,
)
from repro.consistency.facts import FactSet, IncrementalFactGenerator, InstanceId
from repro.errors import SimulationError, SnmpError
from repro.mib.instances import InstanceStore
from repro.mib.tree import MibTree
from repro.netsim.network import Internet
from repro.netsim.sim import Simulator
from repro.nmsl.compiler import CompileResult, NmslCompiler
from repro.nmsl.specs import Specification, PUBLIC_DOMAIN
from repro.snmp.agent import SnmpAgent
from repro.snmp.codec import decode_message, encode_message
from repro.snmp.messages import ErrorStatus, Message

#: Campaign defaults, as an absent ``nmsld`` parameter or ``nmslc``
#: option reads them (``heal`` stages in ``rollout``'s chunk size).
_ROLLOUT = operations.defaults("rollout")
_HEAL = operations.defaults("heal")


@dataclass
class QueryRecord:
    """One observed management query."""

    time: float
    client: str  # client instance id
    server_element: str
    server_agent: str  # agent instance id
    community: str
    request_path: str
    outcome: str  # "ok" | "denied" | "rate-limited" | "no-route"
    delay_s: float = 0.0


@dataclass
class ApplicationDriver:
    """Schedules the queries of one reference, made by ``instance``.

    ``data_element`` is the element whose data the query addresses; it
    differs from ``target_agent.owner`` when a proxy answers for it.
    """

    instance: InstanceId
    target_agent: InstanceId
    community: str
    request_path: str
    period_s: float
    source_element: str
    data_element: str = ""


class ManagementRuntime:
    """Builds and runs the simulated management system."""

    #: Nominal encoded request+response size if codec sizing is skipped.
    DEFAULT_MESSAGE_BYTES = 128

    def __init__(
        self,
        compiler: NmslCompiler,
        result: CompileResult,
        simulator: Optional[Simulator] = None,
    ):
        self.compiler = compiler
        self.result = result
        self.specification: Specification = result.specification
        self.tree: MibTree = compiler.tree
        self.simulator = simulator or Simulator()
        self.internet = Internet.from_specification(self.specification)
        self.facts: FactSet = IncrementalFactGenerator(self.tree).generate(
            self.specification
        )
        self._generator = ConfigurationGenerator(compiler, result)
        self.agents: Dict[str, SnmpAgent] = {}  # agent instance id -> agent
        self.drivers: List[ApplicationDriver] = []
        self.log: List[QueryRecord] = []
        #: (time, agent instance id, trap message) — unsolicited traps.
        self.traps: List[tuple] = []
        self._request_ids = itertools.count(1)
        self._build_agents()
        self._build_drivers()

    def _log_query(self, record: QueryRecord) -> None:
        """Append to the query log, counting outcomes for observability."""
        self.log.append(record)
        o = obs.current()
        if o.enabled:
            o.counter(
                "repro_netsim_queries_total",
                "application queries executed, by outcome",
                outcome=record.outcome,
            ).inc()

    # ------------------------------------------------------------------
    # Agents.
    # ------------------------------------------------------------------
    def _build_agents(self) -> None:
        module = Asn1Module()
        for instance in self.facts.agents():
            if instance.owner_kind != "system":
                continue
            process_view = self.facts.instance_supports[instance.id]
            element_view = self.facts.system_supports.get(instance.owner)
            effective = (
                process_view.intersection(element_view)
                if element_view is not None and not element_view.is_empty()
                else process_view
            )
            store = InstanceStore(self.tree, view=effective, module=module)
            store.populate_defaults()
            self._bind_identity(store, instance)

            def sink(message, _instance_id=instance.id):
                self.traps.append((self.simulator.now, _instance_id, message))

            self.agents[instance.id] = SnmpAgent(
                instance.id, store, tree=self.tree, trap_sink=sink
            )

    def _bind_identity(self, store: InstanceStore, instance: InstanceId) -> None:
        system = self.specification.systems.get(instance.owner)
        if system is None:
            return
        try:
            store.bind("1.3.6.1.2.1.1.1.0", f"{system.opsys} {system.opsys_version}".strip().encode())
        except Exception:
            pass
        # One ipAddrTable row per interface so walks return real rows.
        for index, interface in enumerate(system.interfaces, start=1):
            address = bytes(
                [10, (index * 7) % 250 + 1, hash(system.name) % 250 + 1, index]
            )
            row_index = ".".join(str(b) for b in address)
            try:
                store.bind(f"1.3.6.1.2.1.4.20.1.1.{row_index}", address)
                store.bind(f"1.3.6.1.2.1.4.20.1.2.{row_index}", index)
                store.bind(
                    f"1.3.6.1.2.1.4.20.1.3.{row_index}",
                    b"\xff\xff\xff\x00",
                )
                store.bind(f"1.3.6.1.2.1.4.20.1.4.{row_index}", 1)
            except Exception:
                continue

    # ------------------------------------------------------------------
    # Prescriptive loop: install generated configuration.
    # ------------------------------------------------------------------
    def install_configuration(
        self,
        tag: str = operations.DEFAULT_TAG,
        via_protocol: bool = False,
        chunk_size: int = _ROLLOUT["chunk_size"],
    ) -> int:
        """Install each element's document into every agent on it.

        Returns the number of agents configured.  With ``via_protocol``
        the paper's preferred method is used literally: the Configuration
        Generator acts as an authenticated manager and writes the text
        into each agent's enterprise config objects with SNMP Sets
        (chunked), then triggers an apply — real BER on the wire.  The
        default is the equivalent direct install (faster for large
        sweeps).

        The protocol path truncates each agent's staging buffer before
        writing (a previously failed install must never leave a longer
        predecessor's tail under a shorter config) and checks the error
        status of every Set response; any failure raises
        :class:`SimulationError` naming the element, after the remaining
        elements have been attempted.
        """
        from repro.snmp.agent import (
            ADMIN_COMMUNITY,
            NMSL_CONFIG_APPLY,
            NMSL_CONFIG_RESET,
            NMSL_CONFIG_TEXT,
        )
        from repro.snmp.manager import SnmpManager

        documents = self._generator.documents(tag)
        configured = 0
        failures: List[str] = []
        with obs.current().span(
            "netsim.install_configuration", tag=tag, via_protocol=via_protocol
        ) as span:
            for element, text in documents.items():
                for instance_id, agent in self._agents_of_element(element):
                    if via_protocol:
                        manager = SnmpManager(
                            ADMIN_COMMUNITY, agent.handle_octets
                        )
                        octets = text.encode("utf-8")
                        try:
                            manager.set([(NMSL_CONFIG_RESET, 1)])
                            for start in range(0, len(octets), chunk_size):
                                manager.set(
                                    [
                                        (
                                            NMSL_CONFIG_TEXT,
                                            octets[start : start + chunk_size],
                                        )
                                    ]
                                )
                            manager.set([(NMSL_CONFIG_APPLY, 1)])
                        except SnmpError as exc:
                            failures.append(f"{element} ({instance_id}): {exc}")
                            continue
                    else:
                        agent.load_config(text, self.tree)
                        agent.emit_cold_start(self.simulator.now)
                    configured += 1
            span.annotate(configured=configured, failures=len(failures))
        if failures:
            raise SimulationError(
                "protocol install failed for "
                + "; ".join(sorted(failures))
            )
        return configured

    # ------------------------------------------------------------------
    # Fault-tolerant rollout (the hardened prescriptive loop).
    # ------------------------------------------------------------------
    def rollout_targets(
        self, tag: str = operations.DEFAULT_TAG
    ) -> Dict[str, str]:
        """Per-target configuration text for a rollout campaign.

        Targets are keyed by element name; when an element runs several
        agents each becomes its own ``element/agent-id`` target so the
        coordinator tracks them independently.
        """
        documents = self._generator.documents(tag)
        targets: Dict[str, str] = {}
        for element, text in documents.items():
            for target in self._element_targets(element):
                targets[target] = text
        return targets

    def _element_targets(self, element: str) -> List[str]:
        agents = self._agents_of_element(element)
        if not agents:
            return []
        if len(agents) == 1:
            return [element]
        return [f"{element}/{instance_id}" for instance_id, _ in agents]

    def _agents_of_element(self, element: str) -> List[Tuple[str, SnmpAgent]]:
        return sorted(
            (instance.id, self.agents[instance.id])
            for instance in self.facts.instances_on_system(element)
            if instance.id in self.agents
        )

    def target_agent(self, target: str) -> SnmpAgent:
        element, _, instance_id = target.partition("/")
        agents = self._agents_of_element(element)
        if instance_id:
            for candidate_id, agent in agents:
                if candidate_id == instance_id:
                    return agent
            raise SimulationError(f"unknown rollout target {target!r}")
        if not agents:
            raise SimulationError(f"no agent for rollout target {target!r}")
        return agents[0][1]

    def rollout_channels(
        self, targets: Sequence[str], injector=None
    ) -> Dict[str, Callable[[bytes], bytes]]:
        """Protocol channels for the coordinator, optionally chaos-wrapped."""
        channels = {}
        for target in targets:
            agent = self.target_agent(target)

            def send(octets: bytes, _agent=agent) -> bytes:
                return _agent.handle_octets(octets, now=self.simulator.now)

            if injector is not None:
                send = injector.wrap(
                    target,
                    send,
                    crash_hook=agent.crash,
                    restart_hook=agent.restart,
                    corrupt_hook=agent.corrupt_store,
                )
            channels[target] = send
        return channels

    def rollout(
        self,
        tag: str = _ROLLOUT["tag"],
        policy=None,
        jobs: int = _ROLLOUT["jobs"],
        seed: int = _ROLLOUT["seed"],
        injector=None,
        chunk_size: int = _ROLLOUT["chunk_size"],
        configs: Optional[Dict[str, str]] = None,
        journal=None,
        crash_coordinator_after: Optional[int] = None,
        health=None,
        resume_from=None,
        gate=None,
        deadline=None,
    ):
        """Run a fault-tolerant rollout campaign over every agent.

        Builds per-element two-phase delivery through a
        :class:`~repro.rollout.coordinator.RolloutCoordinator`; each
        agent's current committed configuration (if any) is its
        last-known-good for rollback.  ``configs`` overrides the
        generated target texts (keyed like :meth:`rollout_targets`).
        ``journal`` write-ahead-logs the campaign (making it resumable),
        ``crash_coordinator_after`` kills the coordinator after N
        journaled events (chaos), ``health`` skips quarantined elements,
        ``gate`` (a :class:`~repro.rollout.gate.RolloutGate`) vetoes
        unwaived access-widening deltas and narrows the campaign to the
        impacted elements, and ``resume_from`` (a journal or path)
        continues an interrupted campaign instead of starting fresh.
        Returns the :class:`~repro.rollout.state.RolloutReport`.
        """
        from repro.rollout import RolloutCoordinator

        targets = configs if configs is not None else self.rollout_targets(tag)
        channels = self.rollout_channels(sorted(targets), injector=injector)
        last_known_good = {}
        for target in targets:
            good = self.target_agent(target).last_good_config
            if good is not None:
                last_known_good[target] = good
        coordinator = RolloutCoordinator(
            channels=channels,
            configs=targets,
            policy=policy,
            jobs=jobs,
            seed=seed,
            last_known_good=last_known_good,
            chunk_size=chunk_size,
            journal=journal,
            crash_coordinator_after=crash_coordinator_after,
            health=health,
            gate=gate,
            deadline=deadline,
        )
        if resume_from is not None:
            return coordinator.resume(resume_from)
        return coordinator.run()

    def heal(
        self,
        tag: str = _HEAL["tag"],
        policy=None,
        jobs: int = _HEAL["jobs"],
        seed: int = _HEAL["seed"],
        injector=None,
        chunk_size: int = _ROLLOUT["chunk_size"],
        configs: Optional[Dict[str, str]] = None,
        registry=None,
        interval_s: float = _HEAL["interval_s"],
        rounds: int = _HEAL["rounds"],
        deadline=None,
    ):
        """Run the drift-reconciliation loop over every agent.

        Builds a :class:`~repro.heal.reconciler.Reconciler` whose desired
        state is the generated (or supplied) target configurations and
        whose generation expectations are seeded from each agent's
        current commit count.  Returns the
        :class:`~repro.heal.reconciler.HealReport`.
        """
        from repro.heal import HealthRegistry, Reconciler

        targets = configs if configs is not None else self.rollout_targets(tag)
        channels = self.rollout_channels(sorted(targets), injector=injector)
        expected = {
            target: self.target_agent(target).configs_applied
            for target in targets
        }
        reconciler = Reconciler(
            channels=channels,
            configs=targets,
            policy=policy,
            seed=seed,
            jobs=jobs,
            registry=registry or HealthRegistry(sorted(targets)),
            interval_s=interval_s,
            max_rounds=rounds,
            chunk_size=chunk_size,
            expected_generations=expected,
            deadline=deadline,
        )
        return reconciler.run()

    # ------------------------------------------------------------------
    # Application drivers.
    # ------------------------------------------------------------------
    def _build_drivers(self) -> None:
        """One driver per reference the checker verified, aimed at the
        first system agent :func:`candidate_servers` names for it."""
        for reference in self.facts.references:
            servers, _existential, data_system = candidate_servers(
                reference, self.facts
            )
            target = next(
                (
                    server
                    for server in servers or ()
                    if server.owner_kind == "system"
                ),
                None,
            )
            if target is None:
                continue
            instance = instance_by_tag(reference.client, self.facts)
            self.drivers.append(
                ApplicationDriver(
                    instance=instance,
                    target_agent=target,
                    community=self._community_for(instance, target),
                    request_path=reference.variables[0],
                    period_s=reference.frequency.min_period or 60.0,
                    source_element=self._source_element(instance, target),
                    data_element=data_system or target.owner,
                )
            )

    def _community_for(self, instance: InstanceId, target: InstanceId) -> str:
        """The community an application presents to *target*'s agent.

        A real manager is configured with the community its grant names:
        prefer a shared immediate domain (implicit trust), then a
        permission granted to one of the client's domains, then public.
        """
        client_direct = set(self.facts.direct_domains(instance))
        target_direct = set(self.facts.direct_domains(target))
        shared = sorted(client_direct & target_direct)
        if shared:
            return shared[0]
        client_domains = self.facts.domains_of(instance)
        for permission in permissions_for_server(target, self.facts):
            if permission.grantee_domain in client_domains:
                return permission.grantee_domain
        return PUBLIC_DOMAIN

    def _source_element(self, instance: InstanceId, target: InstanceId) -> str:
        if instance.owner_kind == "system":
            return instance.owner
        # Domain-instantiated applications run "somewhere in the domain":
        # place them on the domain's first system.
        domain = self.specification.domains.get(instance.owner)
        if domain is not None and domain.systems:
            return domain.systems[0]
        return target.owner  # degenerate: co-located with the target

    # ------------------------------------------------------------------
    # Running.
    # ------------------------------------------------------------------
    def start(
        self,
        duration_s: float,
        misbehaving: Optional[Dict[str, float]] = None,
        loss_rate: float = 0.0,
        seed: int = operations.DEFAULT_SEED,
    ) -> None:
        """Schedule all drivers for *duration_s* simulated seconds.

        ``misbehaving`` overrides the period of selected client instance
        ids — injecting managers that query faster than their
        specification promises.  ``loss_rate`` drops that fraction of
        requests in the network (failure injection); drops are logged
        with outcome ``lost``.
        """
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self._loss_rate = loss_rate
        self._rng = random.Random(seed)
        misbehaving = misbehaving or {}
        for driver in self.drivers:
            period = misbehaving.get(driver.instance.id, driver.period_s)
            self._schedule_driver(driver, period, duration_s)

    def _schedule_driver(
        self, driver: ApplicationDriver, period: float, until: float
    ) -> None:
        def fire() -> None:
            self._execute_query(driver)

        self.simulator.schedule_every(period, fire, start=period, until=until)

    def _execute_query(self, driver: ApplicationDriver) -> None:
        now = self.simulator.now

        # Records carry the SEND time: the verifier measures the client's
        # promised inter-query period, and mixing send and arrival
        # timestamps would skew intervals by the path delay.
        def log(outcome: str, delay_s: float = 0.0) -> None:
            self._log_query(
                QueryRecord(
                    now,
                    driver.instance.id,
                    driver.target_agent.owner,
                    driver.target_agent.id,
                    driver.community,
                    driver.request_path,
                    outcome,
                    delay_s=delay_s,
                )
            )

        agent = self.agents.get(driver.target_agent.id)
        if agent is None:
            log("no-route")
            return
        try:
            node = self.tree.resolve(driver.request_path)
        except Exception:
            node = None
        oid = node.oid if node is not None else None
        request = Message.get_next(
            driver.community, next(self._request_ids), [oid or "1.3.6.1"]
        )
        octets = encode_message(request)
        try:
            delay = self.internet.delay(
                driver.source_element, driver.target_agent.owner, len(octets)
            )
        except SimulationError:
            log("no-route")
            return

        loss_rate = getattr(self, "_loss_rate", 0.0)
        if loss_rate and self._rng.random() < loss_rate:
            log("lost")
            return

        def deliver() -> None:
            response_octets = agent.handle_octets(octets, now=self.simulator.now)
            response = decode_message(response_octets)
            if response.pdu.error_status == ErrorStatus.NO_ERROR:
                log("ok", delay)
            elif response.pdu.error_status == ErrorStatus.GEN_ERR:
                log("rate-limited", delay)
            else:
                log("denied", delay)

        self.simulator.schedule(delay, deliver)

    def run(self, duration_s: float) -> int:
        """Run the simulation for *duration_s* seconds of virtual time."""
        return self.simulator.run_until(duration_s)

    # ------------------------------------------------------------------
    # Summaries.
    # ------------------------------------------------------------------
    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.log:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts
