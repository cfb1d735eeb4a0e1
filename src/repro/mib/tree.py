"""The MIB registration tree.

A :class:`MibTree` holds :class:`MibNode` objects addressable two ways:

* by OID (``1.3.6.1.2.1.4.20``), and
* by dotted *name path* as the paper writes them
  (``mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr``).

Name-path resolution is rooted at any registered *root alias*: the paper
starts paths at ``mgmt``, so the tree registers ``mgmt`` as an alias for
``1.3.6.1.2``.  Nodes may carry extra aliases — the paper names the table
entry by its ASN.1 *type* name (``IpAddrEntry``) where RFC 1066 names the
node ``ipAddrEntry``; both resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.asn1.nodes import Asn1Type
from repro.errors import MibError
from repro.mib.oid import Oid, OidLike


class Access(Enum):
    """MIB object access modes (paper Figure 4.1 AType plus read-write).

    The paper's ``Any`` corresponds to read-write here; both spellings are
    accepted by :meth:`parse`.
    """

    ANY = "Any"
    READ_ONLY = "ReadOnly"
    READ_WRITE = "ReadWrite"
    WRITE_ONLY = "WriteOnly"
    NONE = "None"

    @classmethod
    def parse(cls, text: str) -> "Access":
        normalized = text.replace("-", "").replace("_", "").lower()
        for member in cls:
            if member.value.lower() == normalized:
                return member
        raise MibError(f"unknown access mode {text!r}")

    def allows_read(self) -> bool:
        return self in (Access.ANY, Access.READ_ONLY, Access.READ_WRITE)

    def allows_write(self) -> bool:
        return self in (Access.ANY, Access.READ_WRITE, Access.WRITE_ONLY)

    def permits(self, requested: "Access") -> bool:
        """True if this granted mode covers the *requested* mode."""
        return requested in _PERMITTED[self]


#: granted mode -> the requested modes it covers: ``None`` always, any
#: other mode when every read and write it needs is granted.  A table,
#: because the reduction asks once per candidate permission.
_PERMITTED = {
    granted: frozenset(
        requested
        for requested in Access
        if requested is Access.NONE
        or (
            (granted.allows_read() or not requested.allows_read())
            and (granted.allows_write() or not requested.allows_write())
        )
    )
    for granted in Access
}


@dataclass
class MibNode:
    """One node of the MIB tree.

    Leaf nodes carry a ``syntax`` (an ASN.1 type) and an ``access`` mode;
    interior nodes usually carry neither.
    """

    name: str
    oid: Oid
    syntax: Optional[Asn1Type] = None
    access: Access = Access.NONE
    description: str = ""
    aliases: Tuple[str, ...] = ()
    children: Dict[int, "MibNode"] = field(default_factory=dict, repr=False)
    parent: Optional["MibNode"] = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def name_path(self, root: Optional[str] = None) -> str:
        """The dotted name path from the tree root (or from node *root*)."""
        parts: List[str] = []
        node: Optional[MibNode] = self
        while node is not None and node.name:
            parts.append(node.name)
            if root is not None and node.name == root:
                break
            node = node.parent
        return ".".join(reversed(parts))

    def walk(self) -> Iterator["MibNode"]:
        """Yield this node and all descendants in OID order."""
        yield self
        for component in sorted(self.children):
            yield from self.children[component].walk()

    def all_names(self) -> Tuple[str, ...]:
        return (self.name,) + self.aliases


class MibTree:
    """A registry of MIB nodes with OID and name-path lookup."""

    def __init__(self):
        self._root = MibNode(name="", oid=Oid())
        self._by_oid: Dict[Oid, MibNode] = {Oid(): self._root}
        # Name-path resolution entry points: name -> node.
        self._roots_by_name: Dict[str, MibNode] = {}
        # resolve() memo: successes only, dropped by every mutator.
        self._resolved: Dict[str, MibNode] = {}

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        oid: OidLike,
        syntax: Optional[Asn1Type] = None,
        access: Access = Access.NONE,
        description: str = "",
        aliases: Sequence[str] = (),
    ) -> MibNode:
        """Register a node, creating anonymous ancestors as needed."""
        oid = Oid(oid)
        if not len(oid):
            raise MibError("cannot register the empty OID")
        self._resolved.clear()
        existing = self._by_oid.get(oid)
        if existing is not None:
            if existing.name and existing.name != name:
                raise MibError(
                    f"OID {oid} already registered as {existing.name!r}"
                )
            # Filling in a previously-anonymous ancestor.
            existing.name = name
            existing.syntax = syntax or existing.syntax
            existing.access = access if access is not Access.NONE else existing.access
            existing.description = description or existing.description
            existing.aliases = tuple(dict.fromkeys(existing.aliases + tuple(aliases)))
            return existing
        parent = self._ensure(oid.parent)
        node = MibNode(
            name=name,
            oid=oid,
            syntax=syntax,
            access=access,
            description=description,
            aliases=tuple(aliases),
            parent=parent,
        )
        parent.children[oid.components[-1]] = node
        self._by_oid[oid] = node
        return node

    def _ensure(self, oid: Oid) -> MibNode:
        node = self._by_oid.get(oid)
        if node is not None:
            return node
        parent = self._ensure(oid.parent)
        self._resolved.clear()
        node = MibNode(name="", oid=oid, parent=parent)
        parent.children[oid.components[-1]] = node
        self._by_oid[oid] = node
        return node

    def add_root_alias(self, name: str, oid: OidLike) -> None:
        """Allow name paths to start at *name*, resolving to node at *oid*."""
        node = self._by_oid.get(Oid(oid))
        if node is None:
            raise MibError(f"no node at {Oid(oid)} for root alias {name!r}")
        self._roots_by_name[name] = node
        self._resolved.clear()

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    @property
    def root(self) -> MibNode:
        return self._root

    def node_at(self, oid: OidLike) -> MibNode:
        oid = Oid(oid)
        node = self._by_oid.get(oid)
        if node is None:
            raise MibError(f"no MIB node at {oid}")
        return node

    def contains_oid(self, oid: OidLike) -> bool:
        return Oid(oid) in self._by_oid

    def resolve(self, name_path: str) -> MibNode:
        """Resolve a dotted name path such as ``mgmt.mib.ip.ipAddrTable``."""
        node = self._resolved.get(name_path)
        if node is not None:
            return node
        parts = [part for part in name_path.split(".") if part]
        if not parts:
            raise MibError("empty name path")
        node = self._roots_by_name.get(parts[0])
        if node is None:
            raise MibError(
                f"unknown name-path root {parts[0]!r} in {name_path!r} "
                f"(known roots: {sorted(self._roots_by_name)})"
            )
        for part in parts[1:]:
            node = self._child_named(node, part)
            if node is None:
                raise MibError(f"no member {part!r} in path {name_path!r}")
        self._resolved[name_path] = node
        return node

    def knows(self, name_path: str) -> bool:
        """True if :meth:`resolve` would succeed on *name_path*."""
        try:
            self.resolve(name_path)
        except MibError:
            return False
        return True

    @staticmethod
    def _child_named(node: MibNode, name: str) -> Optional[MibNode]:
        for child in node.children.values():
            if name == child.name or name in child.aliases:
                return child
        return None

    def walk(self, prefix: OidLike = ()) -> Iterator[MibNode]:
        """Walk all nodes under *prefix* (default: whole tree) in OID order."""
        start = self._by_oid.get(Oid(prefix))
        if start is None:
            return iter(())
        return start.walk()

    def leaves(self, prefix: OidLike = ()) -> Iterator[MibNode]:
        return (node for node in self.walk(prefix) if node.is_leaf)

    def next_leaf(self, oid: OidLike) -> Optional[MibNode]:
        """The first leaf node strictly after *oid* in lexicographic order.

        This is the registration-tree analogue of SNMP get-next.
        """
        oid = Oid(oid)
        best: Optional[MibNode] = None
        for candidate_oid, node in self._by_oid.items():
            if not node.is_leaf or candidate_oid <= oid:
                continue
            if best is None or candidate_oid < best.oid:
                best = node
        return best

    def __len__(self) -> int:
        return len(self._by_oid)
