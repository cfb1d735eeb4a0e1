"""The reduction rule, written once, and the reasons it fails.

The paper has one reduction rule (Figure 4.9): a grant covers a demand
on four dimensions, tested in the order of :data:`DIMENSIONS` — grantee,
view, access, frequency.  A demand is a reference's
(:func:`reference_demand`) or another grant's, read as every client it
admits (:func:`grant_demand`).  :func:`covers`, :func:`explain` and
:func:`moved` are the three readings of the tuple, and every coverage
test — the checker's, the index's, the impact analysis's and the
analysis passes' — is one of them.

Around the rule: one reference (or one instantiation) against the
facts, answered with the :class:`Inconsistency` a report prints.  The
``scan`` oracle decides and explains every reference here with nothing
else; the production checker calls the same functions with its memoised
view test and its :class:`~repro.consistency.index.PermissionIndex`, so
a covered reference costs one index lookup and an uncovered one is
explained by the same scan.  Every report is written here, which is why
the two are byte-identical.  ``view`` is the caller's ``paths ->
MibView`` function (an interner in production, a plain constructor in
the oracle).
"""

from __future__ import annotations

from itertools import chain, groupby, islice, repeat
from operator import attrgetter, itemgetter
from typing import (
    Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

from repro.consistency.facts import FactSet, InstanceId
from repro.consistency.relations import Permission, Reference
from repro.consistency.report import Inconsistency, InconsistencyKind
from repro.mib.tree import Access
from repro.mib.view import MibView
from repro.nmsl.frequency import FrequencySpec
from repro.nmsl.specs import PUBLIC_DOMAIN

#: ``(candidates, existential, data_system)`` — see :func:`candidate_servers`.
Candidates = Tuple[Optional[List[InstanceId]], bool, Optional[str]]


# ----------------------------------------------------------------------
# The rule: a grant against a demand, one dimension at a time.
# ----------------------------------------------------------------------
class Demand(NamedTuple):
    """What a grant must admit: clients in any of ``domains`` asking for
    ``view`` with ``access`` at ``frequency``."""

    domains: Sequence[str]
    view: MibView
    access: Access
    frequency: FrequencySpec


#: The reduction rule: a grant covers a demand iff every dimension's
#: ``(grant, grant's view, demand) -> bool`` test holds.  Reports name
#: the first that fails, in this order.
DIMENSIONS: Tuple[Tuple[str, Callable], ...] = (
    ("grantee", lambda grant, _view, demand: (
        grant.grantee_domain == PUBLIC_DOMAIN
        or grant.grantee_domain in demand.domains
    )),
    ("view", lambda _grant, view, demand: view.covers_view(demand.view)),
    ("access", lambda grant, _view, demand: (
        grant.access.permits(demand.access)
    )),
    ("frequency", lambda grant, _view, demand: (
        demand.frequency.covered_by(grant.frequency)
    )),
)

#: What is left of the rule once the view is decided elsewhere (by the
#: index's OID buckets).
BEYOND_VIEW = tuple(d for d in DIMENSIONS if d[0] != "view")


def covers(grant, grant_view, demand, dimensions=DIMENSIONS) -> bool:
    """Whether *grant* covers *demand*: ``all()`` over *dimensions*,
    written as a loop so that it allocates nothing."""
    for _name, holds in dimensions:
        if not holds(grant, grant_view, demand):
            return False
    return True


def explain(grant, grant_view, demand) -> Optional[str]:
    """The first dimension *grant* fails *demand* on, or None."""
    for name, holds in DIMENSIONS:
        if not holds(grant, grant_view, demand):
            return name
    return None


def moved(grant, grant_view, demand) -> Tuple[str, ...]:
    """Every dimension *grant* fails *demand* on, in rule order."""
    return tuple(
        name
        for name, holds in DIMENSIONS
        if not holds(grant, grant_view, demand)
    )


def reference_demand(reference: Reference, reference_view: MibView) -> Demand:
    """A reference as a demand: its client's domains and its request."""
    return Demand(
        reference.client_domains,
        reference_view,
        reference.access,
        reference.frequency,
    )


def grant_demand(
    grant: Permission, grant_view: MibView, facts: FactSet
) -> Demand:
    """A grant as a demand: every client it admits.  A client in the
    grantee domain is also in every domain *facts* puts around it, so a
    grant to any of those admits it too."""
    return Demand(
        facts.owners.around((grant.grantee_domain,)),
        grant_view,
        grant.access,
        grant.frequency,
    )


#: Why a permission fails a reference, by dimension.
_REASONS = {
    "grantee": lambda reference, permission, _view: (
        f"grantee domain {permission.grantee_domain!r} does not contain "
        f"client {reference.client!r}"
    ),
    "view": lambda _reference, _permission, view: (
        "requested variables are outside the permitted view "
        f"(permitted: {sorted(view.paths())})"
    ),
    "access": lambda reference, permission, _view: (
        f"access {reference.access.value} exceeds permitted "
        f"{permission.access.value}"
    ),
    "frequency": lambda reference, permission, _view: (
        f"reference {reference.frequency.describe()} violates permitted "
        f"{permission.frequency.describe()}"
    ),
}

#: An uncovered reference's kind: the first of these dimensions any of
#: its permissions failed on, else a missing permission.
_KINDS = (
    ("frequency", InconsistencyKind.FREQUENCY_CONFLICT),
    ("access", InconsistencyKind.ACCESS_EXCEEDED),
)


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


class ClippedView:
    """The warning for a process whose view its element clips, kept as
    the fields :meth:`pieces` words it from (a paper-scale report holds
    100,000; the paths list is the fit memo's, shared).  Equal to a
    record with the same fields and to a string with its text."""

    __slots__ = ("process", "owner", "paths")

    def __init__(self, process: str, owner: str, paths: List[str]) -> None:
        self.process, self.owner, self.paths = process, owner, paths

    @staticmethod
    def pieces(
        records: Iterable["ClippedView"],
        sep: str,
        quote: Optional[Callable[[str], str]] = None,
    ) -> Iterator[str]:
        """Strings that concatenate to the records' sentences with *sep*
        between them, each quoted by *quote* if given (one that escapes
        character by character, as JSON's encoder does).  The words
        around the owner are worded once per run of records that share
        them: no string is made per sentence but the owner's."""
        parts: List[Iterator[str]] = []
        for (process, paths), run in groupby(
            records, attrgetter("process", "paths")
        ):
            head = f"process {process!r} on "
            clause = (
                f": supported view clipped to what the element supports "
                f"({paths})"
            )
            # A tuple: the run ends when groupby moves on, the map later.
            owners = map(repr, map(attrgetter("owner"), tuple(run)))
            if quote is not None:
                head, clause = quote(head)[:-1], quote(clause)[1:]
                owners = map(itemgetter(slice(1, -1)), map(quote, owners))
            between = zip(repeat(clause + sep + head), owners)
            parts.append(
                chain(
                    (sep, head) if parts else (head,),
                    islice(chain.from_iterable(between), 1, None),
                    (clause,),
                )
            )
        return chain.from_iterable(parts)

    def __str__(self) -> str:
        return "".join(self.pieces((self,), ""))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ClippedView:
            return (self.process, self.owner, self.paths) == (
                other.process, other.owner, other.paths
            )
        if isinstance(other, str):
            return str(self) == other
        return NotImplemented


def instantiation_outcomes(
    facts: FactSet, instances: Sequence[InstanceId], fit: Callable = fit
) -> List[Union[None, ClippedView, Inconsistency]]:
    """One outcome per instance: nothing, a warning or a problem.

    An agent's effective view is ``process supports ∩ element
    supports``.  The paper's own example instantiates an agent
    supporting the full MIB on an element without EGP — the view is
    silently clipped, so a non-empty intersection is only worth a
    warning.  An *empty* intersection means the instantiation can
    serve nothing: reported as an inconsistency.
    """
    outcomes: List[Union[None, ClippedView, Inconsistency]] = []
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
                outcome = ClippedView(
                    instance.process_name, instance.owner, effective_paths
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
    covers_view: Callable[[MibView, MibView], bool] = MibView.covers_view,
    index=None,
) -> Tuple[Inconsistency, ...]:
    """This reference's problems; *candidates* is what
    :func:`candidate_servers` answers for it.

    *covers_view* is the support test (the checker's memo) and *index*,
    when given, the :class:`~repro.consistency.index.PermissionIndex`
    asked for a covering permission before any server's grants are
    scanned for a report."""
    servers, existential, data_system = candidates
    if servers is None:  # unknown/external target: cannot check
        return ()
    if not servers:
        return (
            Inconsistency(
                kind=InconsistencyKind.NO_SERVER,
                message=(
                    f"no server instance (or proxy) exists for query "
                    f"target {reference.server!r}"
                ),
                reference=reference,
            ),
        )
    demand = reference_demand(reference, view(reference.variables))
    client = instance_by_tag(reference.client, facts)
    client_direct = () if client is None else facts.direct_domains(client)
    failures: List[Tuple[InstanceId, Inconsistency]] = []
    for server in servers:
        problem = check_against_server(
            reference,
            server,
            demand,
            facts,
            view,
            data_system,
            client_direct,
            covers_view,
            index,
        )
        if problem is not None:
            failures.append((server, problem))
        elif existential:
            return ()
    if existential:
        # No candidate worked; report the nearest misses.
        causes = tuple(
            f"{server.id}: {problem.causes[0] if problem.causes else problem.message}"
            for server, problem in failures[:5]
        )
        return (
            Inconsistency(
                kind=failures[0][1].kind,
                message=(
                    f"no instantiated server can satisfy this query "
                    f"(tried {len(failures)})"
                ),
                reference=reference,
                causes=causes,
            ),
        )
    return tuple(problem for _server, problem in failures)


def check_against_server(
    reference: Reference,
    server: InstanceId,
    demand: Demand,
    facts: FactSet,
    view: Callable[[Sequence[str]], MibView],
    data_system: Optional[str],
    client_direct: Sequence[str],
    covers_view: Callable[[MibView, MibView], bool],
    index,
) -> Optional[Inconsistency]:
    """None if covered; otherwise the inconsistency for this server.

    ``data_system`` names the element whose data is being served when
    it differs from the server instance's host (the proxy case);
    ``client_direct`` is the client's immediate domains; *covers_view*
    and *index* are :func:`check_reference`'s.
    """
    reference_view = demand.view
    process_view = facts.instance_supports[server.id]
    if not covers_view(process_view, reference_view):
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
        if element_view is not None and not covers_view(
            element_view, reference_view
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
    if client_direct:
        server_direct = facts.direct_domains(server)
        for domain in client_direct:
            if domain in server_direct:
                return None
    if (
        index is not None
        and index.covering_permission(server, demand) is not None
    ):
        return None
    permissions = permissions_for_server(server, facts)
    if not permissions:
        return Inconsistency(
            kind=InconsistencyKind.MISSING_PERMISSION,
            message=f"no permission is exported for data at {server.id}",
            reference=reference,
        )
    causes: List[str] = []
    failed = set()
    for permission in permissions:
        permission_view = view(permission.variables)
        dimension = explain(permission, permission_view, demand)
        if dimension is None:
            return None
        failed.add(dimension)
        causes.append(
            f"{permission.origin or permission.grantor}: "
            f"{_REASONS[dimension](reference, permission, permission_view)}"
        )
    return Inconsistency(
        kind=next(
            (kind for name, kind in _KINDS if name in failed),
            InconsistencyKind.MISSING_PERMISSION,
        ),
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
