"""Specification evolution: diffing and incremental re-checking.

Section 5 observes that the cost of regenerating everything "depends on
the frequency of changes to the management specification".  The same is
true of re-checking consistency.  This module provides:

* :class:`SpecificationDiff` — a structural diff between two versions of
  an internet specification: added/removed/changed processes, systems
  and domains (each declaration compared by its
  :meth:`~repro.nmsl.specs.ProcessSpec.fingerprint_tuple`);
* :class:`EvolutionDelta` — a new specification version paired with its
  diff against the previous one: the unit
  :meth:`ConsistencyChecker.recheck` consumes;
* :func:`affected_entities` / :func:`reference_affected` — the
  affectedness analysis shared by the incremental engine: which entity
  tags a diff taints, and whether a reference touches any of them.  A
  reference is affected when its client instance, its target, or any
  domain containing either changed.

Successive versions are checked by one persistent checker: ``check()``
the first, then :meth:`ConsistencyChecker.recheck` each next one.  A
delta that only changes system and domain declarations in place
(containment and the process table as they were) re-expands just those
owners inside the cached fact set; any other delta regenerates the
facts.  Either way only the references that could be affected are
re-reduced, with untouched verdicts reused.

The delta check is exact (proved by the equivalence test-suite and by
construction: coverage of a reference depends only on the entities the
affectedness test tracks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import is_not
from typing import List, Set

from repro.collector import bulk_load
from repro.consistency.checker import same_items
from repro.consistency.facts import FactSet
from repro.nmsl.specs import Specification


@dataclass(frozen=True)
class DiffEntry:
    kind: str  # "process" | "system" | "domain"
    name: str
    change: str  # "added" | "removed" | "changed"

    def render(self) -> str:
        return f"{self.change} {self.kind} {self.name}"


@dataclass
class SpecificationDiff:
    """What changed between two specification versions."""

    entries: List[DiffEntry] = field(default_factory=list)

    def changed_names(self, kind: str) -> Set[str]:
        return {entry.name for entry in self.entries if entry.kind == kind}

    def is_empty(self) -> bool:
        return not self.entries

    def render(self) -> str:
        if not self.entries:
            return "no changes"
        return "\n".join(entry.render() for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _spec_tables(specification: Specification):
    return (
        ("process", specification.processes),
        ("system", specification.systems),
        ("domain", specification.domains),
    )


def diff_specifications(
    old: Specification, new: Specification
) -> SpecificationDiff:
    """Structural diff of two specification versions (two separate
    compiles share no declaration, so every one is fingerprinted: a bulk
    phase, scoped as one)."""
    diff = SpecificationDiff()
    with bulk_load():
        for (kind, old_table), (_kind2, new_table) in zip(
            _spec_tables(old), _spec_tables(new)
        ):
            if old_table is new_table:
                # A shared table (the clone-one-table evolution idiom)
                # needs no per-entry walk — at paper scale the unchanged
                # 100,000-system table dominates the diff otherwise.
                continue
            # Entries shared by identity (all but a few, in the replace-
            # one-entry idiom) drop out before anything is compared: by
            # position while the key sequence is the same objects, by
            # name once entries were added, removed, renamed or moved.
            if same_items(old_table, new_table):
                moved = list(
                    compress(
                        old_table,
                        map(is_not, old_table.values(), new_table.values()),
                    )
                )
            else:
                moved = [
                    name
                    for name, entry in old_table.items()
                    if new_table.get(name) is not entry
                ]
                moved.extend(
                    name for name in new_table if name not in old_table
                )
            for name in sorted(moved):
                if name not in new_table:
                    diff.entries.append(DiffEntry(kind, name, "removed"))
                elif name not in old_table:
                    diff.entries.append(DiffEntry(kind, name, "added"))
                elif (
                    old_table[name].fingerprint_tuple()
                    != new_table[name].fingerprint_tuple()
                ):
                    diff.entries.append(DiffEntry(kind, name, "changed"))
    return diff


@dataclass(frozen=True)
class EvolutionDelta:
    """A specification version plus its diff from the previous version."""

    specification: Specification
    diff: SpecificationDiff

    @classmethod
    def between(
        cls, old: Specification, new: Specification
    ) -> "EvolutionDelta":
        return cls(specification=new, diff=diff_specifications(old, new))


def affected_entities(diff: SpecificationDiff, facts: FactSet) -> Set[str]:
    """Entity tags whose involvement forces a re-check.

    Changed domains taint everything they transitively contain (their
    exports and memberships gate coverage); changed systems taint their
    instances; changed processes taint their instances; and the
    transitive-ancestor expansion makes grantee-side changes visible too.
    """
    affected: Set[str] = set()
    changed_domains = diff.changed_names("domain")
    for name in changed_domains:
        affected.add(f"domain:{name}")
    for name in diff.changed_names("system"):
        affected.add(f"system:{name}")
    changed_processes = diff.changed_names("process")
    for name in changed_processes:
        affected.add(f"process:{name}")
    if changed_processes:
        for instance in facts.instances:
            # A changed agent process changes what its host can serve.
            if (
                instance.process_name in changed_processes
                and instance.owner_kind == "system"
            ):
                affected.add(f"system:{instance.owner}")
    # Expand domain taint downward: members of changed domains, then the
    # instances of every tainted owner.
    if changed_domains:
        owners = facts.owners
        for name in facts.specification.domains:
            if not changed_domains.isdisjoint(owners.above(name)):
                affected.add(f"domain:{name}")
        for name, direct in owners.direct.items():
            if not changed_domains.isdisjoint(owners.around(direct)):
                affected.add(f"system:{name}")
    # A tainted instance taints the targets it can answer for: a literal
    # ``process:P`` reference is covered universally over P's instances,
    # and a proxied element is served from wherever its proxies live —
    # so a domain change around any such instance must re-verdict those
    # references even when client and literal target are elsewhere.
    answered: Set[str] = set()
    for instance in facts.instances:
        if (
            instance.process_name in changed_processes
            or f"{instance.owner_kind}:{instance.owner}" in affected
        ):
            affected.add(f"instance:{instance.id}")
            answered.add(f"process:{instance.process_name}")
            process = facts.specification.processes.get(instance.process_name)
            if process is not None:
                for proxied in process.proxied_systems():
                    answered.add(f"system:{proxied}")
                if process.is_agent():
                    # ...and a ``domain:D`` reference is covered over
                    # every agent under D (a tag of its own: the domain
                    # did not change, its clients are not tainted).
                    answered.update(
                        f"agents:{domain}"
                        for domain in facts.domains_of(instance)
                    )
    affected.update(answered)
    return affected


def reference_affected(reference, affected: Set[str]) -> bool:
    """Could this reference's verdict have changed under the taint set?"""
    if reference.client in affected:
        return True
    kind, _sep, name = reference.server.partition(":")
    if reference.server in affected or (
        kind == "domain" and f"agents:{name}" in affected
    ):
        return True
    if reference.server == "*":
        # Wildcard coverage can shift with any change at all.
        return bool(affected)
    for domain in reference.client_domains:
        if f"domain:{domain}" in affected:
            return True
    return False
