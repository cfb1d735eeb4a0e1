"""Fact generation: from a typed Specification to consistency relations.

This is the compiler's "consistency output" (paper Section 3.2/6.2):

* Python objects (:class:`FactSet`) — instances, containment, references
  and permissions — consumed by the checker;
* the base facts (:meth:`FactSet.base_facts`), one walk that yields each
  fact with the declaration that made it.  The ``consistency`` output
  actions write each fact as a CLP(R) clause (:func:`clpr_fact`) — the
  literal "statements of a logic programming language" — under its
  declaration; the faithful ``clpr`` oracle builds the same facts as
  terms (:func:`clpr_term`) and hands them to its engine unparsed.

Instantiation: every ``process`` clause of a system or domain creates an
*instance* with a unique id (``instan(X, Y, Z)`` of Figure 4.9).
References are expanded per client instance; query targets may be
parameters (bound by invocation arguments or left ``*``), literal process
names, or system names.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.clpr.pretty import atom_text
from repro.clpr.terms import Atom, Num, Struct, Term
from repro.mib.tree import MibTree
from repro.mib.view import MibView
from repro.nmsl.specs import WILDCARD, ProcessSpec, Specification
from repro.consistency.relations import Permission, Reference, access_atom


#: ``dataclass(slots=True)`` arrived in Python 3.10; on 3.9 an instance
#: id keeps a ``__dict__`` (one more tracked object each, nothing else).
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class InstanceId:
    """A unique process instantiation: ``instan(owner, process, ordinal)``."""

    owner: str  # system or domain name
    owner_kind: str  # "system" | "domain"
    process_name: str
    ordinal: int
    args: Tuple[object, ...] = ()
    #: ``process@owner#ordinal``, built once: the checker keys several
    #: hot dicts on it.
    id: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "id", instance_id(self.process_name, self.owner, self.ordinal)
        )

    def __str__(self) -> str:
        return self.id


def instance_id(process_name: str, owner: str, ordinal: int) -> str:
    """An instance's id, ``process@owner#ordinal``: the one spelling of it."""
    return f"{process_name}@{owner}#{ordinal}"


def numbered(invocations, processes, after=()):
    """``(invocation, ordinal)`` for each of one owner's *invocations* of
    a declared process.  Ordinals count per process name (ids survive a
    merge of specifications) on from the invocations *after* names: an
    id does not name its owner's kind, so a domain counts on from the
    system of its name."""
    ordinals: Dict[str, int] = {}
    for owned, group in ((False, after), (True, invocations)):
        for invocation in group:
            key = invocation.process_name
            if key in processes:  # else the linker reported it
                ordinal = ordinals[key] = ordinals.get(key, 0) + 1
                if owned:
                    yield invocation, ordinal


class Containment:
    """Owner-keyed containment: the domains around each system and domain.

    Instances need no entries of their own — an instance is contained by
    its owner and by whatever contains the owner — and the systems of one
    domain share one tuple, so the tables grow with the number of
    *owners*, hold nothing but strings and tuples of strings, and are
    built by plain loops: nothing here can form a reference cycle.
    """

    __slots__ = ("direct", "edges", "_parents", "_above", "_around")

    def __init__(self, specification: Specification):
        #: system name -> the domains that list it, sorted.
        self.direct: Dict[str, Tuple[str, ...]] = {}
        #: domain -> member edges declared (``contains/2`` minus instances).
        self.edges = 0
        self._parents: Dict[str, List[str]] = {}
        self._above: Dict[str, Tuple[str, ...]] = {}
        self._around: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        direct = self.direct
        for domain in specification.domains.values():
            single = (domain.name,)
            for system_name in domain.systems:
                had = direct.get(system_name)
                direct[system_name] = (
                    single if had is None
                    else tuple(sorted({*had, domain.name}))
                )
            for subdomain in domain.subdomains:
                self._parents.setdefault(subdomain, []).append(domain.name)
            self.edges += len(domain.systems) + len(domain.subdomains)

    def above(self, domain: str) -> Tuple[str, ...]:
        """Sorted names of the domains that transitively contain *domain*.

        A worklist, not recursion: a containment cycle (a compile error,
        but a typed model can carry one) terminates, and puts every
        domain on the cycle above every other, itself included.
        """
        got = self._above.get(domain)
        if got is None:
            seen: Set[str] = set()
            frontier = list(self._parents.get(domain, ()))
            while frontier:
                parent = frontier.pop()
                if parent in seen:
                    continue
                seen.add(parent)
                known = self._above.get(parent)
                if known is None:
                    frontier.extend(self._parents.get(parent, ()))
                else:
                    seen.update(known)
            got = self._above[domain] = tuple(sorted(seen))
        return got

    def around(self, domains: Tuple[str, ...]) -> Tuple[str, ...]:
        """*domains* plus everything above them, sorted.

        One result per distinct argument: every system (and instance) of
        a domain gets the same tuple object.
        """
        got = self._around.get(domains)
        if got is None:
            names = set(domains)
            for domain in domains:
                names.update(self.above(domain))
            got = self._around[domains] = tuple(sorted(names))
        return got


@dataclass
class FactPatch:
    """What :meth:`FactSet.patch_owners` replaced, owner by owner in rank
    order; each position is valid once the entries before it are applied."""

    #: (start, old length, new length) in ``FactSet.instances``.
    instances: List[Tuple[int, int, int]] = field(default_factory=list)
    #: (start, the references replaced, new length) in ``references``.
    references: List[Tuple[int, List[Reference], int]] = field(
        default_factory=list
    )
    permissions: int = 0  # grants and exports re-expanded
    #: positions (after the patch) of the references to reduce again.
    pending: Set[int] = field(default_factory=set)


@dataclass
class FactSet:
    """Everything the checker needs, plus the base facts' renderings."""

    specification: Specification
    tree: MibTree
    instances: List[InstanceId] = field(default_factory=list)
    references: List[Reference] = field(default_factory=list)
    permissions: List[Permission] = field(default_factory=list)
    #: process name -> the view the process type supports.
    process_supports: Dict[str, MibView] = field(default_factory=dict)
    #: system name -> the view the element supports.
    system_supports: Dict[str, MibView] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    #: expansion accounting filled in by :class:`IncrementalFactGenerator`:
    #: how many declarations the last generation or patch expanded and
    #: how many it left alone (empty for the plain :class:`FactGenerator`).
    expansion: Dict[str, int] = field(default_factory=dict)

    def note_expansion(self, expanded: Optional[int] = None) -> None:
        """Record that *expanded* declarations (default: every one) were
        expanded to bring this fact set to its specification."""
        spec = self.specification
        declarations = (
            len(spec.processes) + len(spec.systems) + len(spec.domains)
        )
        if expanded is None:
            expanded = declarations
        self.expansion = {
            "expanded": expanded,
            "reused": declarations - expanded,
            "declarations": declarations,
        }

    def rebind(self, specification: Specification) -> None:
        """Make these facts describe *specification*, which expands to them."""
        self.specification = specification
        self.__dict__.pop("containment", None)  # edge list: rebuilt on use
        self.note_expansion(0)

    def fork(self) -> "FactSet":
        """A copy to patch while this one stays as it is: the
        containers a patch writes, copied at the top level (§3.2)."""
        twin = copy.copy(self)
        for name in _PATCHED:
            built = getattr(self, name)
            if built is not None:
                setattr(twin, name, built.copy())
        return twin

    # ------------------------------------------------------------------
    # Containment: the edge list and the owner-keyed closure.
    # ------------------------------------------------------------------
    @cached_property
    def containment(self) -> List[Tuple[str, str]]:
        """``contains/2`` edges parent -> child, entities named as
        ``domain:<name>``, ``system:<name>``, ``instance:<id>``.

        Only :meth:`base_facts` reads the edges (the checker asks
        :meth:`domains_of`), so the list is built on first use.
        """
        edges: List[Tuple[str, str]] = []
        for domain in self.specification.domains.values():
            parent = f"domain:{domain.name}"
            for system_name in domain.systems:
                edges.append((parent, f"system:{system_name}"))
            for subdomain in domain.subdomains:
                edges.append((parent, f"domain:{subdomain}"))
        for instance in self.instances:
            edges.append(
                (f"{instance.owner_kind}:{instance.owner}", f"instance:{instance.id}")
            )
        return edges

    @cached_property
    def owners(self) -> Containment:
        """The owner-keyed tables behind :meth:`domains_of`."""
        return Containment(self.specification)

    def containment_edges(self) -> int:
        """``len(self.containment)`` without building the list."""
        return self.owners.edges + len(self.instances)

    def direct_domains(self, instance: InstanceId) -> Tuple[str, ...]:
        """Domains that directly contain the instance's owner.

        Used for the implicit intra-domain permission: only sharing an
        *immediate* administrative domain grants implicit access — a
        common distant ancestor (an umbrella domain) does not.
        """
        if instance.owner_kind == "domain":
            return (instance.owner,)
        return self.owners.direct.get(instance.owner, ())

    def domains_of(self, entity) -> Tuple[str, ...]:
        """Sorted names of every domain that transitively contains *entity*:
        an :class:`InstanceId`, or a ``domain:``/``system:``/``instance:`` tag.

        All instances of one owner, and all systems of one domain, get
        the same tuple object; callers treat it as read-only.
        """
        owners = self.owners
        if isinstance(entity, str):
            kind, _sep, name = entity.partition(":")
            if kind == "domain":
                return owners.above(name)
            if kind == "system":
                return owners.around(owners.direct.get(name, ()))
            entity = self.instance_by_id(name) if kind == "instance" else None
            if entity is None:
                return ()
        return owners.around(self.direct_domains(entity))

    def ancestors(self, tag: str) -> Set[str]:
        """Tags of every (transitive) container of the tagged entity."""
        kind, _sep, name = tag.partition(":")
        instance = self.instance_by_id(name) if kind == "instance" else None
        containers = {
            f"domain:{domain}" for domain in self.domains_of(instance or tag)
        }
        if instance is not None:
            containers.add(f"{instance.owner_kind}:{instance.owner}")
        return containers

    _taint_cache: Optional[Dict[Optional[str], Set[int]]] = None

    def domain_reference_taint(self) -> Dict[Optional[str], Set[int]]:
        """domain name -> positions of references its exports may affect.

        A conservative superset: every reference whose verdict could
        change when the named domain's export clauses change appears in
        its position set; the key ``None`` holds the positions of
        run-time (``*``) targets, affected by any delta.  A function of
        references, containment and instances only — :meth:`patch_owners`
        keeps it exact — so the checker re-reduces a handful of
        references after a one-owner delta instead of the whole internet.
        """
        if self._taint_cache is None:
            self._taint_cache = self._taint_of(range(len(self.references)))
        return self._taint_cache

    def _server_taint(self, server: str) -> Set[str]:
        """The domains around whatever may answer for *server*: their
        export clauses are the ones a reference to it reads."""
        domains: Set[str] = set()
        kind, _sep, name = server.partition(":")
        if kind == "domain":
            domains.add(name)
            domains.update(self.domains_of(server))
            # Any agent inside answers, under its own subdomains' grants.
            for agent in self.agents():
                around = self.domains_of(agent)
                if name in around:
                    domains.update(around)
        elif kind == "system":
            domains.update(self.domains_of(server))
            # An agentless element may be proxy-managed from another
            # domain; taint the proxies' domains too.
            for proxy in self.proxies_for_system(name):
                domains.update(self.domains_of(proxy))
        elif kind == "process":
            for instance in self.instances_of_process(name):
                domains.update(self.domains_of(instance))
        return domains

    def _taint_of(self, positions) -> Dict[Optional[str], Set[int]]:
        """The taint index of the references at *positions* alone, as
        the fact set stands now."""
        index: Dict[Optional[str], Set[int]] = {}
        servers: Dict[str, Set[str]] = {}
        for position in positions:
            reference = self.references[position]
            server = reference.server
            if server == "*":
                domains = (None,)
            else:
                domains = servers.get(server)
                if domains is None:
                    domains = servers[server] = self._server_taint(server)
                # The client's domains grant implicit/exported access,
                # the server side's the rest.
                domains = domains.union(reference.client_domains)
            for domain in domains:
                index.setdefault(domain, set()).add(position)
        return index

    def _retaint(self, withdrawn, entered, shift=None) -> None:
        """Trade the taint entries *withdrawn* before a splice for those
        *entered* after it, moving every other position through *shift*.
        A set that changes is replaced, never written (a fork shares
        it); one that keeps its positions is left alone."""
        index = self._taint_cache
        for domain in (index if shift else withdrawn).keys() | entered.keys():
            out, into = withdrawn.get(domain, ()), entered.get(domain, ())
            if shift is None and out == into:
                continue
            kept = index.get(domain, set()).difference(out)
            if shift is not None:
                kept = shift(kept)
            kept.update(into)
            if kept:
                index[domain] = kept
            else:
                index.pop(domain, None)

    _grantor_cache: Optional[Dict[str, List[Permission]]] = None

    def permissions_by_grantor(self) -> Dict[str, List[Permission]]:
        """grantor tag -> its permissions (computed once)."""
        if self._grantor_cache is None:
            index: Dict[str, List[Permission]] = {}
            for permission in self.permissions:
                index.setdefault(permission.grantor, []).append(permission)
            self._grantor_cache = index
        return self._grantor_cache

    _instance_cache: Optional[Dict[str, InstanceId]] = None

    def instance_by_id(self, instance_id: str) -> Optional["InstanceId"]:
        if self._instance_cache is None:
            self._instance_cache = {
                instance.id: instance for instance in self.instances
            }
        return self._instance_cache.get(instance_id)

    _agents_cache: Optional[List[InstanceId]] = None
    _by_process_cache: Optional[Dict[str, List[InstanceId]]] = None

    def agents(self) -> List[InstanceId]:
        """Instances whose process type supports data (paper footnote 1)."""
        if self._agents_cache is None:
            self._agents_cache = [
                instance
                for instance in self.instances
                if self.specification.processes[instance.process_name].is_agent()
            ]
        return self._agents_cache

    def instances_of_process(self, process_name: str) -> List[InstanceId]:
        if self._by_process_cache is None:
            index: Dict[str, List[InstanceId]] = {}
            for instance in self.instances:
                index.setdefault(instance.process_name, []).append(instance)
            self._by_process_cache = index
        return self._by_process_cache.get(process_name, [])

    def instances_on_system(self, system_name: str) -> List[InstanceId]:
        """The system's instances in instance order, numbered from its
        declaration as a generation numbers them (no table is kept); an
        id the facts do not hold, after an in-place edit, is left out."""
        spec = self.specification
        system = spec.systems.get(system_name)
        if system is None:
            return []
        ids = (
            instance_id(invocation.process_name, system_name, ordinal)
            for invocation, ordinal in numbered(system.processes, spec.processes)
        )
        return [i for i in map(self.instance_by_id, ids) if i is not None]

    _proxy_cache: Optional[Dict[str, List[InstanceId]]] = None

    def proxies_for_system(self, system_name: str) -> List[InstanceId]:
        """Instances whose process type proxies *system_name*."""
        if self._proxy_cache is None:
            # Resolved once per process type; the walk stays in
            # instance order, which is the candidate order.
            proxied_by = {
                name: process.proxied_systems()
                for name, process in self.specification.processes.items()
            }
            index: Dict[str, List[InstanceId]] = {}
            for instance in self.instances:
                for proxied in proxied_by[instance.process_name]:
                    index.setdefault(proxied, []).append(instance)
            self._proxy_cache = index
        return self._proxy_cache.get(system_name, [])

    # ------------------------------------------------------------------
    # The owner-scoped patch (DESIGN.md §3.2).  ``instances``,
    # ``permissions`` (instance grants, then domain exports),
    # ``references`` and every instance-ordered index are sorted by the
    # rank of the owner that produced each entry: an owner's segment is
    # found by bisection.
    # ------------------------------------------------------------------
    _rank_cache: Optional[Tuple[Dict[str, int], Dict[str, int]]] = None

    def owner_ranks(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(system -> rank, domain -> rank) in cold-generation order:
        systems in table order, then domains (built on first use; a
        patch never reorders it)."""
        if self._rank_cache is None:
            spec = self.specification
            systems = {name: rank for rank, name in enumerate(spec.systems)}
            domains = enumerate(spec.domains, len(systems))
            self._rank_cache = (systems, {name: rank for rank, name in domains})
        return self._rank_cache

    def owner_rank(self, kind: str, name: str) -> int:
        return self.owner_ranks()[kind == "domain"][name]

    def _instance_rank(self, instance: InstanceId) -> int:
        return self.owner_rank(instance.owner_kind, instance.owner)

    def _reference_rank(self, reference: Reference) -> int:
        client = reference.client.partition(":")[2]
        return self._instance_rank(self._instance_cache[client])

    def _exports_rank(self, domain: str) -> int:
        """A domain's exports follow every instance grant."""
        spec = self.specification
        owners = len(spec.systems) + len(spec.domains)
        return self.owner_rank("domain", domain) + owners

    def _grantor_rank(self, permission: Permission) -> int:
        kind, _sep, name = permission.grantor.partition(":")
        if kind == "domain":
            return self._exports_rank(name)
        return self._instance_rank(self._instance_cache[name])

    @staticmethod
    def _owned(items: Sequence, rank: int, rank_of) -> Tuple[int, int]:
        """``[start, end)`` of the entries of rank-sorted *items* whose
        owner has *rank* (where they would go, when it has none)."""
        start, high = 0, len(items)
        while start < high:
            middle = (start + high) // 2
            if rank_of(items[middle]) < rank:
                start = middle + 1
            else:
                high = middle
        end = start
        while end < len(items) and rank_of(items[end]) == rank:
            end += 1
        return start, end

    def patch_owners(
        self, generator: "FactGenerator", owners: Sequence[Tuple[str, str]]
    ) -> "FactPatch":
        """Re-expand only *owners* from *generator*'s specification, in place.

        *owners* are the ``(kind, name)`` of system and domain
        declarations that changed while containment, the process table
        and the order of the declaration tables did not: what an owner
        contributes is then a function of its own declaration alone, so
        replacing its segment of each list and its entries in each lazy
        index yields the fact set a cold generation would build.
        """
        spec = generator._spec
        processes = spec.processes
        self.domain_reference_taint()
        by_grantor = self.permissions_by_grantor()
        self.instance_by_id("")  # references and grants are ranked through it
        around = self.owners.around
        homes = {
            (kind, name): (name,) if kind == "domain"
            else self.owners.direct[name]
            for kind, name in owners
        }
        # Whatever read these domains' exports, or reached a server
        # inside them, before the patch ...
        reach = {domain for home in homes.values() for domain in home}
        index = self._taint_cache
        pending = set().union(*(index.get(domain, ()) for domain in reach))
        self.rebind(spec)
        patch = FactPatch()
        for rank, kind, name in sorted(
            (self.owner_rank(kind, name), kind, name) for kind, name in owners
        ):
            owner = (spec.domains if kind == "domain" else spec.systems)[name]
            i0, i1 = self._owned(self.instances, rank, self._instance_rank)
            g0, g1 = self._owned(self.permissions, rank, self._grantor_rank)
            r0, r1 = self._owned(self.references, rank, self._reference_rank)
            old = self.instances[i0:i1]
            new: List[InstanceId] = []
            generator._make_instances(kind, (owner,), new)
            # References elsewhere answered by a process type this
            # owner starts or stops instantiating: their taint moves.
            answered: Set[str] = set()
            for process_name in {i.process_name for i in old} ^ {
                i.process_name for i in new
            }:
                process = processes[process_name]
                answered.add(f"process:{process_name}")
                answered.update(
                    f"system:{proxied}" for proxied in process.proxied_systems()
                )
                if process.is_agent():
                    answered.update(
                        f"domain:{domain}"
                        for domain in around(homes[kind, name])
                    )
            others = [
                position
                for position, reference in enumerate(self.references)
                if reference.server in answered and not r0 <= position < r1
            ] if answered else []
            withdrawn = self._taint_of([*range(r0, r1), *others])
            pending.difference_update(range(r0, r1))
            for instance in old:
                del self._instance_cache[instance.id]
            for permission in self.permissions[g0:g1]:
                by_grantor.pop(permission.grantor, None)
            generator._make_views(
                self, (owner,) if kind == "system" else (), ()
            )
            grants: List[Permission] = []
            generator._make_grants(self, new, grants)
            references: List[Reference] = []
            generator._make_references(self, new, references)
            patch.instances.append((i0, i1 - i0, len(new)))
            patch.references.append((r0, self.references[r0:r1], len(references)))
            patch.permissions += len(grants)
            self.instances[i0:i1] = new
            self.permissions[g0:g1] = grants
            self.references[r0:r1] = references
            for instance in new:
                self._instance_cache[instance.id] = instance
            # The owner's grantors were popped above: each list is new.
            for permission in grants:
                by_grantor.setdefault(permission.grantor, []).append(permission)
            self._swap_instances(rank, old, new)
            if kind == "domain":
                e0, e1 = self._owned(
                    self.permissions, self._exports_rank(name), self._grantor_rank
                )
                exports: List[Permission] = []
                generator._make_exports((owner,), exports)
                self.permissions[e0:e1] = exports
                by_grantor.pop(f"domain:{name}", None)
                if exports:
                    by_grantor[f"domain:{name}"] = exports
                patch.permissions += len(exports)
            grown = len(references) - (r1 - r0)
            shifted = None
            if grown:
                def shifted(positions):
                    return {p + grown if p >= r1 else p for p in positions}

                pending = shifted(pending)
                others = shifted(others)
            fresh = range(r0, r0 + len(references))
            self._retaint(
                withdrawn, self._taint_of([*fresh, *others]), shifted
            )
            pending.update(fresh)
        # ... and whatever does now, plus every run-time target.
        index = self._taint_cache
        pending.update(*(index.get(domain, ()) for domain in (*reach, None)))
        patch.pending = pending
        self.note_expansion(len(owners))
        return patch

    def _swap_instances(
        self, rank: int, old: List[InstanceId], new: List[InstanceId]
    ) -> None:
        """Replace one owner's entries in the instance-ordered indexes
        that have been built (the others build from the patched list):
        each list that changes is replaced, never written."""
        processes = self.specification.processes

        def swap(index, keys_of):
            if index is None:
                return None
            members: Dict[str, List[InstanceId]] = {}
            for instance in new:
                for key in keys_of(instance):
                    members.setdefault(key, []).append(instance)
            for key in {
                key for instance in old for key in keys_of(instance)
            }.union(members):
                items = index.get(key, ())
                start, end = self._owned(items, rank, self._instance_rank)
                items = [*items[:start], *members.get(key, ()), *items[end:]]
                if items:
                    index[key] = items
                else:
                    index.pop(key, None)
            return index

        swap(self._by_process_cache, lambda i: (i.process_name,))
        swap(
            self._proxy_cache,
            lambda i: processes[i.process_name].proxied_systems(),
        )
        if self._agents_cache is not None:
            # The one unkeyed list: lend it a key for the swap.
            self._agents_cache = swap(
                {"": self._agents_cache},
                lambda i: ("",) if processes[i.process_name].is_agent() else (),
            ).get("", [])

    # ------------------------------------------------------------------
    # The base facts (the paper's consistency output).
    # ------------------------------------------------------------------
    def base_facts(self) -> Iterator[Tuple[Optional[Tuple[str, str]], tuple]]:
        """Every base fact once, as ``(owner, fact)``, in text order.

        A *fact* is a tuple ``(functor, *args)`` whose tagged entities
        are ``(tag, name)`` pairs and whose periods stay numeric.  Its
        *owner* is the ``(table, name)`` of the declaration that made
        it: the process of a ``proc_*`` or ``proxy_for`` fact, the system
        or domain owning an instance, the system of a ``system_supports``
        or ``speed`` fact, the parent of a ``contains`` edge, the domain
        of a ``dom_export``; ``None`` for the whole-specification
        ``data_covers`` and ``access_covers`` facts.
        """
        spec = self.specification
        for name, process in sorted(spec.processes.items()):
            owner = ("processes", name)
            for path in process.supports:
                yield owner, ("proc_supports", name, path)
            for export in process.exports:
                access = access_atom(export.access)
                period = export.frequency.min_period
                for path in export.variables:
                    yield owner, (
                        "proc_export", name, export.to_domain, path, access,
                        period,
                    )
            params = process.param_names()
            for query in process.queries:
                target = (
                    ("param", params.index(query.target))
                    if query.target in params else ("proc", query.target)
                )
                access = access_atom(query.access)
                period = query.frequency.min_period
                for path in query.requests:
                    yield owner, (
                        "proc_query", name, target, path, access, period
                    )
            for proxy in process.proxies:
                yield owner, (
                    "proxy_for", name, ("system", proxy.target_system),
                    proxy.protocol or "direct",
                )
        for instance in self.instances:
            owner = (_TABLES[instance.owner_kind], instance.owner)
            yield owner, (
                "instance", instance.id, instance.owner, instance.process_name
            )
            for index, arg in enumerate(instance.args):
                if arg == WILDCARD:
                    continue
                value = str(arg)
                if value in spec.systems:
                    tag = "system"
                elif value in spec.processes:
                    tag = "proc"
                elif value in spec.domains:
                    tag = "domain"
                else:
                    tag = "val"
                yield owner, ("inst_arg", instance.id, index, (tag, value))
        for system_name, view in sorted(self.system_supports.items()):
            for path in sorted(view.paths()):
                yield ("systems", system_name), (
                    "system_supports", system_name, path
                )
        for system in spec.systems.values():
            for interface in system.interfaces:
                yield ("systems", system.name), (
                    "speed", system.name, interface.speed_bps
                )
        for parent, child in self.containment:
            kind, _sep, name = parent.partition(":")
            child_kind, _sep, child_name = child.partition(":")
            yield (_TABLES[kind], name), (
                "contains", (kind, name), (child_kind, child_name)
            )
        for domain in spec.domains.values():
            owner = ("domains", domain.name)
            for export in domain.exports:
                access = access_atom(export.access)
                period = export.frequency.min_period
                for path in export.variables:
                    yield owner, (
                        "dom_export", domain.name, export.to_domain, path,
                        access, period,
                    )
        for parent, child in self._data_containment_pairs():
            yield None, ("data_covers", parent, child)
        for broad, narrow in _ACCESS_COVER_PAIRS:
            yield None, ("access_covers", broad, narrow)

    def _data_containment_pairs(self) -> List[Tuple[str, str]]:
        """``data_covers(Parent, Child)`` for every mentioned path pair."""
        mentioned: Set[str] = set()
        spec = self.specification
        for process in spec.processes.values():
            mentioned.update(process.supports)
            for export in process.exports:
                mentioned.update(export.variables)
            for query in process.queries:
                mentioned.update(query.requests)
        for system in spec.systems.values():
            mentioned.update(system.supports)
        for domain in spec.domains.values():
            for export in domain.exports:
                mentioned.update(export.variables)
        resolvable = [path for path in sorted(mentioned) if self.tree.knows(path)]
        pairs = []
        for parent in resolvable:
            parent_oid = self.tree.resolve(parent).oid
            for child in resolvable:
                if self.tree.resolve(child).oid.starts_with(parent_oid):
                    pairs.append((parent, child))
        return pairs


#: An owner kind's declaration table.
_TABLES = {"system": "systems", "domain": "domains"}

#: The :class:`FactSet` containers :meth:`~FactSet.patch_owners` writes
#: to (it replaces the lists inside the lazy indexes instead).
_PATCHED = (
    "instances", "references", "permissions", "system_supports",
    "expansion", "_instance_cache", "_grantor_cache", "_by_process_cache",
    "_proxy_cache", "_taint_cache",
)

_ACCESS_COVER_PAIRS = [
    ("any", "readonly"),
    ("any", "writeonly"),
    ("any", "readwrite"),
    ("any", "any"),
    ("any", "none"),
    ("readwrite", "readonly"),
    ("readwrite", "writeonly"),
    ("readwrite", "readwrite"),
    ("readwrite", "none"),
    ("readonly", "readonly"),
    ("readonly", "none"),
    ("writeonly", "writeonly"),
    ("writeonly", "none"),
    ("none", "none"),
]


def clpr_fact(fact: tuple) -> str:
    """One base fact as a CLP(R) clause: ``functor(arg, ...).``"""
    return _term(fact) + "."


def _term(value) -> str:
    """A tuple as a compound term, a string as an atom, a number as an
    integer when it is integral (periods are floats)."""
    if isinstance(value, tuple):
        functor, *args = value
        return f"{atom_text(functor)}({', '.join(map(_term, args))})"
    if isinstance(value, str):
        return atom_text(value)
    if value == int(value):
        return str(int(value))
    text = repr(value)
    if "e" in text:  # the reader takes no exponent: write it positionally
        from decimal import Decimal
        text = format(Decimal(text), "f")
    return text


def clpr_term(value, leaves: Dict[object, Term]) -> Term:
    """A base fact as the term its :func:`clpr_fact` clause reads back to:
    a tuple as a compound term, a string as an atom, a number as a
    :class:`~repro.clpr.terms.Num`.  *leaves* holds each atom and number
    made so far, so the calls of one build share them."""
    if isinstance(value, tuple):
        functor, *args = value
        return Struct(functor, tuple(clpr_term(arg, leaves) for arg in args))
    leaf = leaves.get(value)
    if leaf is None:
        leaf = Atom(value) if isinstance(value, str) else Num.of(value)
        leaves[value] = leaf
    return leaf


class FactGenerator:
    """Expands a Specification into a :class:`FactSet`.

    ``view_of``, when given, supplies :class:`MibView` objects for a
    paths-tuple (used by :class:`IncrementalFactGenerator` to intern
    views across declarations and specification versions).
    """

    def __init__(
        self,
        specification: Specification,
        tree: MibTree,
        view_of=None,
    ):
        self._spec = specification
        self._tree = tree
        self._view_of = view_of

    def generate(self) -> FactSet:
        spec = self._spec
        facts = FactSet(spec, self._tree)
        span = obs.current().span
        with span("consistency.facts.instances"):
            for kind, table in (("system", spec.systems), ("domain", spec.domains)):
                self._make_instances(kind, table.values(), facts.instances)
        with span("consistency.facts.containment"):
            facts.owners  # built here so the phase is attributed
        with span("consistency.facts.views"):
            self._make_views(facts, spec.systems.values(), spec.processes.items())
        with span("consistency.facts.permissions"):
            self._make_grants(facts, facts.instances, facts.permissions)
            self._make_exports(spec.domains.values(), facts.permissions)
        with span("consistency.facts.references"):
            self._make_references(facts, facts.instances, facts.references)
        return facts

    # Each step expands the owners or instances it is handed into *out*:
    # all of them for a cold generation, one owner's for
    # :meth:`FactSet.patch_owners` — one code, so one result.
    # ------------------------------------------------------------------
    # Instantiation (instan/3).
    # ------------------------------------------------------------------
    def _make_instances(
        self, owner_kind: str, owners, out: List[InstanceId]
    ) -> None:
        # No count outlives its owner: a dict of one entry per instance
        # that dies with the generation lifts glibc's mmap threshold, and
        # a checker dropped later can leave its tables in the heap.
        processes = self._spec.processes
        systems = self._spec.systems
        for owner in owners:
            twin = systems.get(owner.name) if owner_kind == "domain" else None
            for invocation, ordinal in numbered(
                owner.processes, processes, twin.processes if twin else ()
            ):
                out.append(
                    InstanceId(
                        owner.name,
                        owner_kind,
                        invocation.process_name,
                        ordinal,
                        invocation.args,
                    )
                )

    # ------------------------------------------------------------------
    # Supported views.
    # ------------------------------------------------------------------
    def _make_views(self, facts: FactSet, systems, processes) -> None:
        """The views *systems* and the ``(name, process)`` pairs of
        *processes* support: an instance's is its process's."""
        for system in systems:
            facts.system_supports[system.name] = self.view(system.supports)
        for name, process in processes:
            facts.process_supports[name] = self.view(process.supports)

    def view(self, paths: Sequence[str]) -> MibView:
        """The view over the known *paths*: ``view_of``'s when one was
        given, else a fresh object per call."""
        if self._view_of is not None:
            return self._view_of(tuple(paths))
        known = [path for path in paths if self._tree.knows(path)]
        return MibView(self._tree, known)

    # ------------------------------------------------------------------
    # Permissions (perm_eq/perm_gt).
    # ------------------------------------------------------------------
    def _make_grants(
        self, facts: FactSet, instances, out: List[Permission]
    ) -> None:
        for instance in instances:
            process = self._spec.processes[instance.process_name]
            if not process.exports:
                continue
            grantor_domains = facts.domains_of(instance)
            for export in process.exports:
                out.append(
                    Permission(
                        grantor=f"instance:{instance.id}",
                        grantor_domains=grantor_domains,
                        grantee_domain=export.to_domain,
                        variables=export.variables,
                        access=export.access,
                        frequency=export.frequency,
                        origin=f"process {process.name} exports",
                        location=export.location,
                    )
                )

    @staticmethod
    def _make_exports(domains, out: List[Permission]) -> None:
        for domain in domains:
            for export in domain.exports:
                out.append(
                    Permission(
                        grantor=f"domain:{domain.name}",
                        grantor_domains=(domain.name,),
                        grantee_domain=export.to_domain,
                        variables=export.variables,
                        access=export.access,
                        frequency=export.frequency,
                        origin=f"domain {domain.name} exports",
                        location=export.location,
                    )
                )

    # ------------------------------------------------------------------
    # References (ref_eq/ref_gt).
    # ------------------------------------------------------------------
    def _make_references(
        self, facts: FactSet, instances, out: List[Reference]
    ) -> None:
        for instance in instances:
            process = self._spec.processes[instance.process_name]
            if not process.queries:
                continue
            client_domains = facts.domains_of(instance)
            for query in process.queries:
                server = self._resolve_target(process, instance, query.target)
                out.append(
                    Reference(
                        client=f"instance:{instance.id}",
                        client_domains=client_domains,
                        server=server,
                        variables=query.requests,
                        access=query.access,
                        frequency=query.frequency,
                        origin=(
                            f"process {process.name} queries {query.target} "
                            f"({instance.id})"
                        ),
                        location=query.location,
                    )
                )

    def _resolve_target(
        self, process: ProcessSpec, instance: InstanceId, target: str
    ) -> str:
        names = process.param_names()
        if target in names:
            position = names.index(target)
            if position < len(instance.args):
                value = instance.args[position]
                if value == WILDCARD:
                    return "*"
                return self._classify_target(str(value))
            return "*"
        return self._classify_target(target)

    def _classify_target(self, value: str) -> str:
        if value in self._spec.systems:
            return f"system:{value}"
        if value in self._spec.processes:
            return f"process:{value}"
        if value in self._spec.domains:
            return f"domain:{value}"
        return f"external:{value}"


class IncrementalFactGenerator:
    """Fact generation across specification versions.

    The checker's generation path:

    * :class:`MibView` objects are interned per paths-tuple, so a
      10,000-element internet whose elements share one ``supports`` list
      resolves it once, not once per element — and never again in a
      later version;
    * :meth:`generate` expands every declaration; an owner-local delta
      instead re-expands only the owners it changed, inside the fact set
      the previous version left (:meth:`FactSet.patch_owners`, with this
      generator's interner).  Either way :attr:`FactSet.expansion`
      counts what was actually expanded.
    """

    def __init__(self, tree: MibTree):
        self._tree = tree
        self._views: Dict[Tuple[str, ...], MibView] = {}

    def view(self, paths: Sequence[str]) -> MibView:
        """The interned view for a paths-tuple (tree-scoped, never stale)."""
        key = tuple(paths)
        got = self._views.get(key)
        if got is None:
            got = MibView(
                self._tree,
                [path for path in key if self._tree.knows(path)],
            )
            self._views[key] = got
        return got

    def generate(self, specification: Specification) -> FactSet:
        facts = FactGenerator(
            specification, self._tree, view_of=self.view
        ).generate()
        facts.note_expansion()
        return facts
