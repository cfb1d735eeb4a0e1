"""Relational impact analysis: what a spec revision actually changes.

*Relational Network Verification* argues the right verification object
for an evolving network is the **delta** between two states, not each
state in isolation.  This module computes that delta's *impact set* for
a pair of NMSL specification revisions A and B:

* which references changed verdict (broke / fixed / changed causes),
  reusing the incremental recheck so the cost is near-O(change);
* which permissions were widened or tightened, grantor by grantor —
  access-widening grants are the changes worth refusing to ship without
  an explicit waiver (Diekmann, *Provably Secure Networks*);
* which generated per-element configurations change byte-wise (content
  fingerprints from :mod:`repro.codegen.fingerprints`), i.e. which
  elements a rollout must redrive;
* which elements were orphaned (removed from B while still carrying an
  A-side configuration).

The rendering into NM4xx diagnostics lives in
:mod:`repro.analysis.relational`; the rollout gate consuming the impact
set lives in :mod:`repro.rollout.gate`.

Cost model
----------
:meth:`ImpactAnalyzer.analyze` piggybacks on one persistent
:class:`~repro.consistency.checker.ConsistencyChecker`.  An owner-local
delta makes the recheck patch the cached fact set **in place**, so
A-side state (config fingerprints for impacted elements, the grants of
the grantors the diff names) is captured *before* the recheck runs; the
verdict flips are the verdicts the recheck itself moved
(:meth:`ConsistencyChecker.verdict_changes`).  Nothing here walks the
model, not even for a whole-spec fingerprint: only the diff, the
impacted elements and the re-reduced references.
Config fingerprinting is scoped to the impacted elements by default —
``config_scope="full"`` hashes every element on both sides, which
additionally exposes config-rewrites-without-spec-cause (NM403) at
full-check cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.consistency.causes import DIMENSIONS, covers, grant_demand, moved
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.evolution import (
    EvolutionDelta,
    SpecificationDiff,
)
from repro.consistency.facts import FactSet
from repro.consistency.relations import Permission, Reference
from repro.consistency.report import ConsistencyResult, Inconsistency
from repro.mib.tree import MibTree
from repro.nmsl.specs import Specification


@dataclass(frozen=True)
class VerdictFlip:
    """One reference whose consistency verdict differs between A and B."""

    kind: str  # "broke" | "fixed" | "changed"
    reference: Reference
    old_problems: Tuple[Inconsistency, ...]
    new_problems: Tuple[Inconsistency, ...]

    def describe(self) -> str:
        return f"{self.kind}: {self.reference.describe()}"


@dataclass(frozen=True)
class PermissionChange:
    """One grant that moved between A and B, classified by direction.

    ``widened``   — B grants authority no A-side grant of this grantor
                    covered (the change a gate must refuse unwaived);
    ``tightened`` — an A-side grant is no longer covered in B;
    ``added``     — a new grant already covered by an A-side grant;
    ``removed``   — a dropped grant still covered by a remaining grant.
    """

    kind: str
    grantor: str
    old: Optional[Permission]
    new: Optional[Permission]
    reasons: Tuple[str, ...] = ()
    #: which of :data:`~repro.consistency.causes.DIMENSIONS` moved, by
    #: name (machine-readable).
    dimensions: Tuple[str, ...] = ()

    def subject(self) -> str:
        return self.grantor.replace(":", " ", 1)


@dataclass(frozen=True)
class ConfigChange:
    """One element whose generated configuration changes byte-wise."""

    element: str
    tag: str
    old_digest: Optional[str]
    new_digest: Optional[str]
    #: False when the rewrite has no corresponding spec-diff cause — a
    #: generator-nondeterminism signal (NM403), only detectable under
    #: ``config_scope="full"``.
    spec_caused: bool = True


@dataclass(frozen=True)
class ImpactSet:
    """The relational impact of evolving a specification from A to B."""

    diff: SpecificationDiff
    verdict_flips: Tuple[VerdictFlip, ...] = ()
    permission_changes: Tuple[PermissionChange, ...] = ()
    config_changes: Tuple[ConfigChange, ...] = ()
    #: elements whose declarations (or containing domains / instantiated
    #: processes) the diff touched — the superset a rollout may stage.
    impacted_elements: FrozenSet[str] = frozenset()
    #: elements removed in B that still carried an A-side configuration.
    orphaned: Tuple[str, ...] = ()
    stats: Dict[str, object] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not (
            self.verdict_flips
            or self.permission_changes
            or self.config_changes
            or self.orphaned
        )

    def widened(self) -> Tuple[PermissionChange, ...]:
        return tuple(
            change
            for change in self.permission_changes
            if change.kind == "widened"
        )

    def redrive_elements(self) -> Tuple[str, ...]:
        """Elements whose shipped configuration must be redriven in B."""
        return tuple(
            sorted(
                {
                    change.element
                    for change in self.config_changes
                    if change.new_digest is not None
                }
            )
        )


# ----------------------------------------------------------------------
# Grant coverage: the reduction rule with a grant as the demand.
# ----------------------------------------------------------------------
#: What a failing dimension says, from the grant that does not cover
#: (*old*) to the grant it fails (*new*).
_MOVES = {
    "grantee": lambda old, new: (
        f"grantee moved from {old.grantee_domain!r} "
        f"to {new.grantee_domain!r}"
    ),
    "view": lambda old, new: (
        f"granted view grew beyond {', '.join(old.variables)} "
        f"(now {', '.join(new.variables)})"
    ),
    "access": lambda old, new: (
        f"access raised from {old.access.value} to {new.access.value}"
    ),
    "frequency": lambda old, new: (
        f"frequency loosened from {old.frequency.describe()} "
        f"to {new.frequency.describe()}"
    ),
}


def _closest(
    grant: Permission, candidates: Sequence[Permission]
) -> Optional[Permission]:
    """The best A/B-side partner for a moved grant, for readable reasons."""
    for candidate in candidates:
        if (
            candidate.grantee_domain == grant.grantee_domain
            and candidate.variables == grant.variables
        ):
            return candidate
    for candidate in candidates:
        if candidate.grantee_domain == grant.grantee_domain:
            return candidate
    return candidates[0] if candidates else None


def grantor_permission_changes(
    grantor: str,
    old_grants: Sequence[Permission],
    new_grants: Sequence[Permission],
    view,
    facts: FactSet,
) -> List[PermissionChange]:
    """Classify one grantor's grant movements between A and B.

    Exact value matches cancel first (multiset-wise — grant equality
    ignores source location, so re-parses stay quiet); every surviving
    B-side grant is *widened* unless some A-side grant covers it, and
    every surviving A-side grant is *tightened* unless some B-side grant
    still covers it.  Covering is the reduction rule with the grant as
    the demand (:func:`~repro.consistency.causes.grant_demand`): its
    grantee stands for the domains the B-side *facts* put around it too,
    so a grant to a subdomain of a grantee already granted adds nothing.
    """

    def demand(grant: Permission):
        return grant_demand(grant, view(grant.variables), facts)

    def covered(grant: Permission, by: Sequence[Permission]) -> bool:
        wanted = demand(grant)
        return any(covers(other, view(other.variables), wanted) for other in by)

    def movement(partner: Permission, grant: Permission):
        """(moved dimensions, reasons): *grant* against *partner*."""
        dimensions = moved(partner, view(partner.variables), demand(grant))
        return dimensions, tuple(
            _MOVES[name](partner, grant) for name in dimensions
        )

    changes: List[PermissionChange] = []
    added = list((Counter(new_grants) - Counter(old_grants)).elements())
    removed = list((Counter(old_grants) - Counter(new_grants)).elements())
    for grant in added:
        if covered(grant, old_grants):
            changes.append(
                PermissionChange(
                    "added",
                    grantor,
                    old=None,
                    new=grant,
                    reasons=("already covered by an A-side grant",),
                )
            )
            continue
        partner = _closest(grant, old_grants)
        if partner is None:
            dimensions = tuple(name for name, _holds in DIMENSIONS)
            reasons: Tuple[str, ...] = (
                "no A-side grant from this grantor covers it",
            )
        else:
            dimensions, reasons = movement(partner, grant)
        changes.append(
            PermissionChange(
                "widened",
                grantor,
                old=partner,
                new=grant,
                reasons=reasons,
                dimensions=dimensions,
            )
        )
    for grant in removed:
        if covered(grant, new_grants):
            changes.append(
                PermissionChange(
                    "removed",
                    grantor,
                    old=grant,
                    new=None,
                    reasons=("still covered by a remaining B-side grant",),
                )
            )
            continue
        partner = _closest(grant, new_grants)
        if partner is None:
            dimensions = ()
            reasons = ("grant removed",)
        else:
            # The tightening is the reverse movement: what did the old
            # grant confer that the closest new grant no longer does?
            dimensions, reasons = movement(partner, grant)
            reasons = tuple(
                reason.replace("raised", "lowered")
                .replace("loosened", "tightened")
                .replace("grew beyond", "shrank from")
                for reason in reasons
            )
        changes.append(
            PermissionChange(
                "tightened",
                grantor,
                old=grant,
                new=partner,
                reasons=reasons,
                dimensions=dimensions,
            )
        )
    return changes


def _verdict_signature(problems: Sequence[Inconsistency]) -> Tuple:
    """Location-free identity of one reference's problem list."""
    return tuple(
        (problem.kind.value, problem.message, tuple(problem.causes))
        for problem in problems
    )


def _flip_kind(old_problems, new_problems) -> str:
    if not old_problems:
        return "broke"
    if not new_problems:
        return "fixed"
    return "changed"


def impacted_elements(
    diff: SpecificationDiff,
    old_spec: Specification,
    new_spec: Specification,
) -> FrozenSet[str]:
    """Network elements the diff could re-configure, from spec tables alone.

    Changed/added/removed domains taint their member systems through the
    subdomain closure (on both sides — membership itself may be what
    changed); changed systems taint themselves; changed processes taint
    every system instantiating them.  No fact expansion needed, so this
    is O(diff) except when processes changed (then one system-table scan).
    """
    impacted: Set[str] = set()
    pending = list(diff.changed_names("domain"))
    seen: Set[str] = set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for spec in (old_spec, new_spec):
            domain = spec.domains.get(name)
            if domain is not None:
                impacted.update(domain.systems)
                pending.extend(domain.subdomains)
    impacted.update(diff.changed_names("system"))
    changed_processes = diff.changed_names("process")
    if changed_processes:
        for spec in (old_spec, new_spec):
            for system in spec.systems.values():
                if any(
                    invocation.process_name in changed_processes
                    for invocation in system.processes
                ):
                    impacted.add(system.name)
    return frozenset(impacted)


class ImpactAnalyzer:
    """Differential verification between successive spec revisions.

    Usage::

        analyzer = ImpactAnalyzer(tree)
        analyzer.baseline(revision_a)      # full check, state remembered
        impact = analyzer.analyze(revision_b)   # near-O(change)

    Successive :meth:`analyze` calls chain: each call diffs against the
    previously analyzed revision, keeping the checker warm throughout.
    """

    def __init__(
        self,
        tree: MibTree,
        *,
        tags: Sequence[str] = ("BartsSnmpd",),
        config_scope: str = "impacted",
    ):
        if config_scope not in ("impacted", "full"):
            raise ValueError(
                f"config_scope must be 'impacted' or 'full', "
                f"not {config_scope!r}"
            )
        self._tree = tree
        self._tags = tuple(tags)
        self._config_scope = config_scope
        self._registry = None  # the fingerprint registry, built once
        self._checker: Optional[ConsistencyChecker] = None

    @property
    def checker(self) -> Optional[ConsistencyChecker]:
        return self._checker

    def baseline(self, specification: Specification) -> ConsistencyResult:
        """Full-check revision A and remember its verdicts and facts."""
        self._checker = ConsistencyChecker(specification, self._tree)
        return self._checker.check()

    def _fingerprints(
        self, specification, elements, facts
    ) -> Dict[str, Dict[str, str]]:
        from repro.codegen.fingerprints import (
            config_fingerprints,
            default_fingerprint_registry,
        )

        if self._registry is None:
            self._registry = default_fingerprint_registry()
        return config_fingerprints(
            specification,
            self._tree,
            tags=self._tags,
            elements=elements,
            facts=facts,
            registry=self._registry,
        )

    def analyze(self, specification: Specification) -> ImpactSet:
        """The impact set of evolving the last-seen revision to B."""
        checker = self._checker
        if checker is None:
            raise RuntimeError(
                "ImpactAnalyzer.analyze needs a baseline() first"
            )
        old_spec = checker.specification
        delta = EvolutionDelta.between(old_spec, specification)
        diff = delta.diff

        impacted = impacted_elements(diff, old_spec, specification)
        removed_systems = sorted(
            entry.name
            for entry in diff.entries
            if entry.kind == "system" and entry.change == "removed"
        )

        # ---- A-side state, captured before the recheck can patch the
        # cached fact set in place (an owner-local delta replaces the
        # owners' segments and index entries rather than building a new
        # FactSet).  Like ``recheck``, the delta is taken against the
        # revision as it was last analyzed: no staleness test.
        old_facts = checker.checked_facts
        if self._config_scope == "full":
            old_scope = None
        else:
            old_scope = sorted(
                {name for name in impacted if name in old_spec.systems}
                | set(removed_systems)
            )
        old_prints = (
            self._fingerprints(old_spec, old_scope, old_facts)
            if old_scope is None or old_scope
            else {tag: {} for tag in self._tags}
        )
        grantors = self._grantors(diff, old_facts)
        by_grantor = old_facts.permissions_by_grantor()
        old_grants = {
            grantor: by_grantor[grantor]
            for grantor in grantors
            if grantor in by_grantor
        }

        result = checker.recheck(delta)
        new_facts = checker.checked_facts

        # ---- B-side fingerprints over the impacted scope.
        if self._config_scope == "full":
            new_scope = None
        else:
            new_scope = sorted(
                name for name in impacted if name in specification.systems
            )
        new_prints = (
            self._fingerprints(specification, new_scope, new_facts)
            if new_scope is None or new_scope
            else {tag: {} for tag in self._tags}
        )

        verdict_flips = [
            VerdictFlip(
                _flip_kind(old_problems, new_problems),
                reference,
                tuple(old_problems),
                tuple(new_problems),
            )
            for reference, old_problems, new_problems
            in checker.verdict_changes()
            if _verdict_signature(old_problems)
            != _verdict_signature(new_problems)
        ]
        grantors |= self._grantors(diff, new_facts)
        by_grantor = new_facts.permissions_by_grantor()
        permission_changes: List[PermissionChange] = []
        for grantor in sorted(grantors):
            permission_changes.extend(
                grantor_permission_changes(
                    grantor,
                    old_grants.get(grantor, ()),
                    by_grantor.get(grantor, ()),
                    checker.view,
                    new_facts,
                )
            )
        config_changes: List[ConfigChange] = []
        for tag in self._tags:
            old_map = old_prints.get(tag, {})
            new_map = new_prints.get(tag, {})
            for element in sorted(set(old_map) | set(new_map)):
                old_digest = old_map.get(element)
                new_digest = new_map.get(element)
                if old_digest != new_digest:
                    config_changes.append(
                        ConfigChange(
                            element,
                            tag,
                            old_digest,
                            new_digest,
                            spec_caused=(
                                element in impacted
                                or element in removed_systems
                            ),
                        )
                    )
        orphaned = tuple(
            name
            for name in removed_systems
            if any(name in old_prints.get(tag, {}) for tag in self._tags)
        )
        stats = {
            "diff_entries": len(diff),
            "patched": result.stats.get("patched", False),
            "rechecked": result.stats.get("rechecked", 0),
            "reused": result.stats.get("reused", 0),
            "impacted_elements": len(impacted),
            "verdict_flips": len(verdict_flips),
            "permission_changes": len(permission_changes),
            "config_changes": len(config_changes),
            "seconds": result.stats.get("seconds", 0.0),
        }
        return ImpactSet(
            diff=diff,
            verdict_flips=tuple(verdict_flips),
            permission_changes=tuple(permission_changes),
            config_changes=tuple(config_changes),
            impacted_elements=impacted,
            orphaned=orphaned,
            stats=stats,
        )

    @staticmethod
    def _grantors(diff, facts) -> Set[str]:
        """Grantor tags the diff could re-grant: the changed domains and
        the instances of changed systems and processes — looked up, not
        scanned for, so a one-owner delta stays O(change)."""
        grantors = {f"domain:{name}" for name in diff.changed_names("domain")}
        for name in diff.changed_names("system"):
            grantors.update(
                f"instance:{instance.id}"
                for instance in facts.instances_on_system(name)
            )
        for name in diff.changed_names("process"):
            grantors.update(
                f"instance:{instance.id}"
                for instance in facts.instances_of_process(name)
            )
        return grantors
