"""Indexed reference→permission coverage lookup.

The paper's reduction step asks, for every reference, whether some
permission covers it.  The reduction rule as written
(:mod:`repro.consistency.causes`) answers by walking the candidate
permission list per reference — O(refs × perms) in the worst case.  The
:class:`PermissionIndex` here drops that to near-O(refs):

* per server instance, the applicable permissions (its own exports plus
  every containing domain's) are collected once and their views resolved
  once — and once for *all* servers of an owner that export nothing of
  their own;
* within a server's permission set, permissions are bucketed by the OID
  components of their view roots, so "which permissions could cover this
  requested subtree" is answered by walking the subtree's OID prefixes —
  O(depth) dictionary probes instead of a scan;
* the surviving candidates (usually zero or one) are then held to the
  rest of the rule — the grantee, access and frequency tests of
  :data:`repro.consistency.causes.DIMENSIONS`, the buckets having
  decided the view.

The index answers the *positive* question only ("is the reference
covered, and by which permission").  Cause reporting for uncovered
references stays with :mod:`repro.consistency.causes`, so the checker's
reports are byte-identical to the ``scan`` oracle's.

Index entries are built lazily: a check that never references
a server never pays for indexing its permissions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.consistency.causes import BEYOND_VIEW, Demand, covers
from repro.consistency.facts import FactSet, InstanceId
from repro.consistency.relations import Permission
from repro.mib.view import MibView

#: Resolves a paths-tuple to a (preferably interned) MibView.
ViewResolver = Callable[[Sequence[str]], MibView]

#: One indexed permission: the permission plus its resolved view.
IndexedPermission = Tuple[Permission, MibView]

#: Per-server index: the entry list plus OID-prefix buckets mapping a
#: permission-view root (as an OID component tuple) to entry positions.
_ServerIndex = Tuple[
    Tuple[IndexedPermission, ...],
    Dict[Tuple[int, ...], List[int]],
]


class PermissionIndex:
    """Permissions keyed by (server, grantee domain, OID prefix, access).

    Built against one :class:`FactSet`; the consistency checker discards
    it whenever the facts are regenerated or patched, so it can cache
    aggressively.
    """

    def __init__(self, facts: FactSet, view_of: ViewResolver):
        self._facts = facts
        self._view_of = view_of
        self._servers: Dict[Tuple[Optional[str], Tuple[str, ...]], _ServerIndex] = {}
        #: id(view) -> its root OIDs as component tuples (views are
        #: interned by the checker, so id-keying is safe; the pin list
        #: keeps them alive for the index's lifetime).
        self._root_components: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
        self._pins: List[MibView] = []
        #: Plain-int lookup tallies (a hit is a covering permission found)
        #: kept cheap here and published to repro.obs by the checker.
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Build (lazy, per server).
    # ------------------------------------------------------------------
    def permissions_for(self, server: InstanceId) -> List[Permission]:
        """Every permission applicable to *server*, in index order."""
        entries, _buckets = self._server_index(server)
        return [permission for permission, _view in entries]

    def _server_index(self, server: InstanceId) -> _ServerIndex:
        facts = self._facts
        domains = facts.domains_of(server)
        # Servers that grant nothing themselves see exactly their
        # domains' grants: one entry per distinct domain tuple (shared by
        # every such server of an owner) instead of one per server.
        grants_own = facts.specification.processes[server.process_name].exports
        key = (server.id if grants_own else None, domains)
        got = self._servers.get(key)
        if got is None:
            by_grantor = facts.permissions_by_grantor()
            permissions: List[Permission] = (
                list(by_grantor.get(f"instance:{server.id}", ()))
                if grants_own
                else []
            )
            for domain in domains:
                permissions.extend(by_grantor.get(f"domain:{domain}", ()))
            entries = tuple(
                (permission, self._view_of(permission.variables))
                for permission in permissions
            )
            buckets: Dict[Tuple[int, ...], List[int]] = {}
            for position, (_permission, view) in enumerate(entries):
                # Views are interned, so the root-OID memo answers for
                # every server sharing a permission view — at paper
                # scale the same export view backs thousands of servers.
                for components in self._roots_of(view):
                    buckets.setdefault(components, []).append(position)
            got = (entries, buckets)
            self._servers[key] = got
        return got

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    def covering_permission(
        self, server: InstanceId, demand: Demand
    ) -> Optional[Permission]:
        """A permission at *server* covering *demand*, if any exists.

        Agrees with :func:`repro.consistency.causes.covers` over the
        server's candidate list: returns a permission iff the scan would
        find one.
        """
        found = self._lookup(server, demand)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def _lookup(
        self, server: InstanceId, demand: Demand
    ) -> Optional[Permission]:
        entries, buckets = self._server_index(server)
        if not entries:
            return None
        roots = self._roots_of(demand.view)
        if len(roots) == 1:
            components = roots[0]
            positions: List[int] = []
            for depth in range(len(components) + 1):
                hits = buckets.get(components[:depth])
                if hits:
                    positions.extend(hits)
            if not positions:
                return None
            ordered = (
                sorted(set(positions)) if len(positions) > 1 else positions
            )
        elif roots:
            candidates: Optional[set] = None
            for components in roots:
                found: set = set()
                for depth in range(len(components) + 1):
                    hits = buckets.get(components[:depth])
                    if hits:
                        found.update(hits)
                candidates = (
                    found if candidates is None else candidates & found
                )
                if not candidates:
                    return None
            ordered = sorted(candidates)
        else:
            # An empty view (nothing resolvable) is covered by any
            # permission that passes the other tests, matching
            # covers_view's all-of-nothing semantics.
            ordered = range(len(entries))
        for position in ordered:
            permission, view = entries[position]
            if covers(permission, view, demand, BEYOND_VIEW):
                return permission
        return None

    def _roots_of(
        self, view: MibView
    ) -> Tuple[Tuple[int, ...], ...]:
        key = id(view)
        got = self._root_components.get(key)
        if got is None:
            got = tuple(oid.components for oid in view.root_oids())
            self._root_components[key] = got
            self._pins.append(view)
        return got

    def stats(self) -> Dict[str, int]:
        return {
            "indexed_servers": len(self._servers),
            "indexed_permissions": sum(
                len(entries) for entries, _buckets in self._servers.values()
            ),
            "lookup_hits": self.hits,
            "lookup_misses": self.misses,
        }
