"""The reduction rule read off the fact set, with the reasons it fails.

One reference (or one instantiation) against the facts — no index, no
memo — answered with the :class:`Inconsistency` a report prints.  The
production checker decides coverage through its index and comes here
only for the rare uncovered reference; the ``scan`` oracle comes here
for every one.  Every report is written here, which is why the two are
byte-identical.  ``view`` is the caller's ``paths -> MibView`` function
(an interner in production, a plain constructor in the oracle).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.consistency.facts import FactSet, InstanceId
from repro.consistency.relations import (
    Permission,
    Reference,
    permission_covers,
)
from repro.consistency.report import Inconsistency, InconsistencyKind
from repro.mib.view import MibView
from repro.nmsl.specs import PUBLIC_DOMAIN

#: ``(candidates, existential, data_system)`` — see :func:`candidate_servers`.
Candidates = Tuple[Optional[List[InstanceId]], bool, Optional[str]]


# ----------------------------------------------------------------------
# Instantiation consistency: a process must fit its network element.
# ----------------------------------------------------------------------
def fit(
    supported: MibView, element_view: MibView
) -> Tuple[str, Optional[List[str]]]:
    """Classify a (process view, element view) pair: ``ok`` (covered),
    ``clipped`` (non-empty intersection, with its sorted paths) or
    ``empty``."""
    if element_view.covers_view(supported):
        return ("ok", None)
    effective = supported.intersection(element_view)
    if effective.is_empty():
        return ("empty", None)
    return ("clipped", sorted(effective.paths()))


def instantiation_outcomes(
    facts: FactSet, instances: Sequence[InstanceId], fit: Callable = fit
) -> List[Union[None, str, Inconsistency]]:
    """One outcome per instance: nothing, a warning or a problem.

    An agent's effective view is ``process supports ∩ element
    supports``.  The paper's own example instantiates an agent
    supporting the full MIB on an element without EGP — the view is
    silently clipped, so a non-empty intersection is only worth a
    warning.  An *empty* intersection means the instantiation can
    serve nothing: reported as an inconsistency.
    """
    outcomes: List[Union[None, str, Inconsistency]] = []
    instance_supports = facts.instance_supports
    system_supports = facts.system_supports
    for instance in instances:
        outcome = None
        element_view = (
            system_supports.get(instance.owner)
            if instance.owner_kind == "system"
            else None
        )
        if element_view is not None:
            supported = instance_supports[instance.id]
            state, effective_paths = (
                ("ok", None)
                if supported.is_empty()
                else fit(supported, element_view)
            )
            if state == "empty":
                outcome = Inconsistency(
                    kind=InconsistencyKind.INSTANTIATION_CONFLICT,
                    message=(
                        f"process {instance.process_name!r} on "
                        f"{instance.owner!r} supports no data the element "
                        f"supports (process: {sorted(supported.paths())}, "
                        f"element: {sorted(element_view.paths())})"
                    ),
                )
            elif state == "clipped":
                outcome = (
                    f"process {instance.process_name!r} on "
                    f"{instance.owner!r}: supported view clipped to what "
                    f"the element supports ({effective_paths})"
                )
        outcomes.append(outcome)
    return outcomes


# ----------------------------------------------------------------------
# Reference reduction.
# ----------------------------------------------------------------------
def candidate_servers(reference: Reference, facts: FactSet) -> Candidates:
    """Candidate servers, coverage mode, and whose data is served.

    Returns ``(candidates, existential, data_system)``:

    * literal process targets: the client may reach *any* instance of
      the process type, so every instance must be covered (universal);
    * system targets: the client addresses that element; any agent on
      it may answer (existential).  An element with *no* agents may be
      proxy-managed (paper Section 3.1): the candidates are then the
      proxy instances, still serving the *target* element's data —
      ``data_system`` names that element either way;
    * domain targets: any agent in the domain may answer — the client
      cannot know which, so all must be covered (universal);
    * ``*`` targets (run-time values): existential over all agents;
    * external targets (IP literals etc.): unknown, not checkable.
    """
    server = reference.server
    if server == "*":
        return facts.agents(), True, None
    kind, _sep, name = server.partition(":")
    if kind == "process":
        return facts.instances_of_process(name), False, None
    if kind == "system":
        processes = facts.specification.processes
        agents = [
            instance
            for instance in facts.instances_on_system(name)
            if processes[instance.process_name].is_agent()
        ]
        if not agents:
            return facts.proxies_for_system(name), True, name
        return agents, True, name
    if kind == "domain":
        members = [
            instance
            for instance in facts.agents()
            if name in facts.domains_of(instance)
        ]
        return members, False, None
    return None, False, None


def check_reference(
    reference: Reference,
    facts: FactSet,
    candidates: Candidates,
    view: Callable[[Sequence[str]], MibView],
    public_domain: str = PUBLIC_DOMAIN,
) -> List[Inconsistency]:
    """This reference's problems; *candidates* is what
    :func:`candidate_servers` answers for it."""
    servers, existential, data_system = candidates
    if servers is None:  # unknown/external target: cannot check
        return []
    if not servers:
        return [
            Inconsistency(
                kind=InconsistencyKind.NO_SERVER,
                message=(
                    f"no server instance (or proxy) exists for query "
                    f"target {reference.server!r}"
                ),
                reference=reference,
            )
        ]
    reference_view = view(reference.variables)
    failures: List[Tuple[InstanceId, Inconsistency]] = []
    for server in servers:
        problem = check_against_server(
            reference,
            server,
            reference_view,
            facts,
            view,
            public_domain,
            data_system,
        )
        if problem is not None:
            failures.append((server, problem))
        elif existential:
            return []
    if existential:
        # No candidate worked; report the nearest misses.
        causes = tuple(
            f"{server.id}: {problem.causes[0] if problem.causes else problem.message}"
            for server, problem in failures[:5]
        )
        return [
            Inconsistency(
                kind=failures[0][1].kind,
                message=(
                    f"no instantiated server can satisfy this query "
                    f"(tried {len(failures)})"
                ),
                reference=reference,
                causes=causes,
            )
        ]
    return [problem for _server, problem in failures]


def check_against_server(
    reference: Reference,
    server: InstanceId,
    reference_view: MibView,
    facts: FactSet,
    view: Callable[[Sequence[str]], MibView],
    public_domain: str = PUBLIC_DOMAIN,
    data_system: Optional[str] = None,
) -> Optional[Inconsistency]:
    """None if covered; otherwise the inconsistency for this server.

    ``data_system`` names the element whose data is being served when
    it differs from the server instance's host (the proxy case).
    """
    process_view = facts.instance_supports[server.id]
    if not process_view.covers_view(reference_view):
        return Inconsistency(
            kind=InconsistencyKind.UNSUPPORTED_BY_PROCESS,
            message=(
                f"server process {server.process_name!r} ({server.id}) does "
                f"not support the requested data"
            ),
            reference=reference,
            causes=(f"process supports only {sorted(process_view.paths())}",),
        )
    element_name: Optional[str] = data_system
    if element_name is None and server.owner_kind == "system":
        element_name = server.owner
    if element_name is not None:
        element_view = facts.system_supports.get(element_name, None)
        if element_view is not None and not element_view.covers_view(
            reference_view
        ):
            return Inconsistency(
                kind=InconsistencyKind.UNSUPPORTED_BY_ELEMENT,
                message=(
                    f"network element {element_name!r} does not support "
                    f"the requested data"
                ),
                reference=reference,
                causes=(f"element supports only {sorted(element_view.paths())}",),
            )
    # Exports govern access "from outside the domain" (Section 4.1.5):
    # a reference whose client shares an *immediate* containing domain
    # with the server is implicitly permitted.  A distant common
    # ancestor (an umbrella domain) grants nothing.
    client_instance = instance_by_tag(reference.client, facts)
    if client_instance is not None and not set(
        facts.direct_domains(client_instance)
    ).isdisjoint(facts.direct_domains(server)):
        return None
    permissions = permissions_for_server(server, facts)
    if not permissions:
        return Inconsistency(
            kind=InconsistencyKind.MISSING_PERMISSION,
            message=f"no permission is exported for data at {server.id}",
            reference=reference,
        )
    causes: List[str] = []
    best_kind = InconsistencyKind.MISSING_PERMISSION
    for permission in permissions:
        verdict = permission_covers(
            reference,
            permission,
            reference_view,
            view(permission.variables),
            public_domain=public_domain,
        )
        if verdict.covered:
            return None
        causes.append(f"{permission.origin or permission.grantor}: {verdict.reason}")
        if "frequency" in verdict.reason or "violates permitted" in verdict.reason:
            best_kind = InconsistencyKind.FREQUENCY_CONFLICT
        elif "access" in verdict.reason and best_kind is not InconsistencyKind.FREQUENCY_CONFLICT:
            best_kind = InconsistencyKind.ACCESS_EXCEEDED
    return Inconsistency(
        kind=best_kind,
        message=(
            f"reference has no corresponding permission at {server.id}"
        ),
        reference=reference,
        causes=tuple(causes),
    )


def instance_by_tag(tag: str, facts: FactSet) -> Optional[InstanceId]:
    if not tag.startswith("instance:"):
        return None
    return facts.instance_by_id(tag.split(":", 1)[1])


def permissions_for_server(
    server: InstanceId, facts: FactSet
) -> List[Permission]:
    by_grantor = facts.permissions_by_grantor()
    result = list(by_grantor.get(f"instance:{server.id}", ()))
    for domain in facts.domains_of(server):
        result.extend(by_grantor.get(f"domain:{domain}", ()))
    return result
