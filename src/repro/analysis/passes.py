"""The built-in analysis passes.

Code families:

* ``NM101`` unused-process, ``NM102`` unmanaged-element, ``NM103``
  dead-extension-entry — specification hygiene;
* ``NM201`` unused-permission, ``NM202`` overbroad-grant, ``NM203``
  shadowed-permission, ``NM204`` transitive-overbroad-reach — the
  permission analyses over the paper's ``perm_eq`` facts;
* ``NM301`` frequency-budget-overload, ``NM302`` type-access-mismatch —
  the frequency/type analyses.

NM101/NM102/NM201/NM202 are the four passes migrated from the seed
linter; the other five are new in this framework.  Every pass yields
:class:`Diagnostic` values anchored at the declaring clause's
:class:`SourceLocation`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from repro.consistency.causes import (
    candidate_servers,
    covers,
    grant_demand,
    reference_demand,
)
from repro.consistency.relations import Permission
from repro.mib.tree import MibTree
from repro.nmsl.actions import BASE_DECLTYPES, KeywordTable
from repro.nmsl.outputs import EPILOGUE
from repro.nmsl.specs import PUBLIC_DOMAIN, ExportSpec
from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import AnalysisPass, PassRegistry

#: Average management query cost in bits — matches the consistency
#: checker's capacity heuristic (paper Section 4.1.4).
BITS_PER_QUERY = 8192.0

#: Fraction of an element's interface budget management traffic may use.
BUDGET_FRACTION = 0.1

#: Clause-starting keywords consumed by the base grammar per decltype: a
#: clause-level extension action bound to one of these can never fire,
#: because the generic actions handle the clause before the extension
#: storage sees it (see ``SpecificationBuilder._handle_extra_clause``).
_BASE_HANDLED: Dict[str, Set[str]] = {
    "type": {"access"},
    "process": {"supports", "exports", "queries", "proxies"},
    "system": {"cpu", "interface", "opsys", "supports", "process"},
    "domain": {"system", "domain", "process", "exports"},
}


# ----------------------------------------------------------------------
# NM1xx — hygiene.
# ----------------------------------------------------------------------
def _unused_processes(
    rule: AnalysisPass, context: AnalysisContext
) -> Iterator[Diagnostic]:
    instantiated = {
        instance.process_name for instance in context.facts.instances
    }
    for name, process in sorted(context.specification.processes.items()):
        if name in instantiated:
            continue
        yield rule.diagnostic(
            subject=name,
            message=(
                "specified but never instantiated on any system or domain"
            ),
            location=process.location,
            suggestion=(
                "instantiate the process on a system or domain, or delete "
                "the specification"
            ),
        )


def _unmanaged_elements(
    rule: AnalysisPass, context: AnalysisContext
) -> Iterator[Diagnostic]:
    facts = context.facts
    spec = context.specification
    for system_name, system in sorted(spec.systems.items()):
        agents = [
            instance
            for instance in facts.instances_on_system(system_name)
            if spec.processes[instance.process_name].is_agent()
        ]
        if agents or facts.proxies_for_system(system_name):
            continue
        yield rule.diagnostic(
            subject=system_name,
            message=(
                "no agent process and no proxy: management queries cannot "
                "be answered for this element"
            ),
            location=system.location,
            suggestion=(
                "run an agent process on the element or declare a proxy "
                "process for it"
            ),
        )


def _dead_extension_entries(
    rule: AnalysisPass, context: AnalysisContext
) -> Iterator[Diagnostic]:
    """Extension-table rows that can never fire against the base grammar."""
    if not context.extensions:
        return
    table = context.keyword_table
    if table is None:
        table = KeywordTable()
        for extension in context.extensions:
            for entry in extension.keywords:
                table.prepend(entry)
    known_decltypes = set(BASE_DECLTYPES)
    known_decltypes.update(context.extension_decltypes)
    for extension in context.extensions:
        known_decltypes.update(extension.decltypes)
    for position, extension in enumerate(context.extensions):
        where = None
        if position < len(context.extension_files):
            from repro.errors import SourceLocation

            where = SourceLocation(context.extension_files[position])
        subject = f"extension {extension.name}"
        for entry in extension.keywords:
            live = [d for d in entry.decltypes if d in known_decltypes]
            if not live:
                yield rule.diagnostic(
                    subject=subject,
                    message=(
                        f"keyword {entry.keyword!r} is declared only for "
                        f"unknown specification type(s) "
                        f"{', '.join(sorted(entry.decltypes))}: no "
                        "declaration can ever contain it"
                    ),
                    location=where,
                    suggestion=(
                        "declare the decltype with a 'decltype' statement "
                        "or correct the keyword's decltype list"
                    ),
                )
        for action in extension.actions:
            if action.decltype == EPILOGUE:
                continue
            label = (
                f"output action {action.tag!r} for "
                f"{action.decltype}.{action.keyword}"
                if action.keyword
                else f"output action {action.tag!r} for {action.decltype}"
            )
            if action.decltype not in known_decltypes:
                yield rule.diagnostic(
                    subject=subject,
                    message=(
                        f"{label} names unknown specification type "
                        f"{action.decltype!r}: the action can never run"
                    ),
                    location=where,
                    suggestion="declare the decltype or fix the action row",
                )
                continue
            if action.keyword is None:
                continue
            entry = table.lookup(action.keyword, action.decltype)
            if entry is None:
                yield rule.diagnostic(
                    subject=subject,
                    message=(
                        f"{label} refers to keyword {action.keyword!r} "
                        f"which is not registered for "
                        f"{action.decltype!r} declarations"
                    ),
                    location=where,
                    suggestion=(
                        f"add 'keyword {action.keyword} in "
                        f"{action.decltype};' to the extension"
                    ),
                )
            elif not entry.starts_clause:
                yield rule.diagnostic(
                    subject=subject,
                    message=(
                        f"{label} is bound to continuation keyword "
                        f"{action.keyword!r}: the base grammar only "
                        "produces it inside another clause, so the clause "
                        "action never fires"
                    ),
                    location=where,
                    suggestion="bind the action to a clause-starting keyword",
                )
            elif (
                action.decltype in _BASE_HANDLED
                and action.keyword in _BASE_HANDLED[action.decltype]
            ):
                yield rule.diagnostic(
                    subject=subject,
                    message=(
                        f"{label} is bound to base-grammar keyword "
                        f"{action.keyword!r}: the generic actions consume "
                        "the clause, so it is never stored for extension "
                        "rendering"
                    ),
                    location=where,
                    suggestion=(
                        "use a new keyword, or a declaration-level action "
                        "(no keyword) to override the output for the "
                        "whole declaration"
                    ),
                )


# ----------------------------------------------------------------------
# NM2xx — permissions.
# ----------------------------------------------------------------------
def _export_owners(
    context: AnalysisContext,
) -> Iterator[Tuple[str, ExportSpec]]:
    """(subject, export) for every export declaration with live grantors.

    Process exports only materialize as permissions once the process is
    instantiated; uninstantiated processes are already NM101 findings, so
    their exports are skipped here rather than double-reported.
    """
    facts = context.facts
    for name, process in sorted(context.specification.processes.items()):
        if not process.exports or not facts.instances_of_process(name):
            continue
        for export in process.exports:
            yield f"process {name}", export
    for name, domain in sorted(context.specification.domains.items()):
        for export in domain.exports:
            yield f"domain {name}", export


def _export_as_permission(
    context: AnalysisContext, subject: str, export: ExportSpec
) -> Permission:
    """A declaration-level permission value for coverage tests.

    The rule (:data:`repro.consistency.causes.DIMENSIONS`) only consults
    the grantee domain, view, access and frequency, all of which are
    instance-independent, so one synthetic permission per export
    declaration suffices.
    """
    return Permission(
        grantor=subject,
        grantor_domains=(),
        grantee_domain=export.to_domain,
        variables=export.variables,
        access=export.access,
        frequency=export.frequency,
        origin=f"{subject} exports",
        location=export.location,
    )


def _unused_permissions(
    rule: AnalysisPass, context: AnalysisContext
) -> Iterator[Diagnostic]:
    demands = [
        reference_demand(reference, context.view(reference.variables))
        for reference in context.facts.references
    ]
    for subject, export in _export_owners(context):
        permission = _export_as_permission(context, subject, export)
        permission_view = context.view(permission.variables)
        if any(covers(permission, permission_view, d) for d in demands):
            continue
        yield rule.diagnostic(
            subject=subject,
            message=(
                f"export of {', '.join(export.variables)} to "
                f"{export.to_domain!r} matches no specified reference"
            ),
            location=export.location,
            suggestion="remove the export or tighten it to what is queried",
        )


def _overbroad_grants(
    rule: AnalysisPass, context: AnalysisContext
) -> Iterator[Diagnostic]:
    for subject, export in _export_owners(context):
        if export.to_domain != PUBLIC_DOMAIN:
            continue
        if not export.access.allows_write():
            continue
        yield rule.diagnostic(
            subject=subject,
            message=(
                f"exports {export.access.value} access to the public "
                "domain: any administration may modify this data"
            ),
            location=export.location,
            suggestion=(
                "export ReadOnly to the public domain and grant write "
                "access to named domains only"
            ),
        )


def _permission_key(permission: Permission) -> Tuple:
    """Identity of the *declaration* behind an instance permission."""
    return (
        permission.origin,
        permission.location,
        permission.grantee_domain,
        permission.variables,
        permission.access,
        permission.frequency.as_tuple(),
    )


def _origin_subject(permission: Permission) -> str:
    origin = permission.origin
    if origin.endswith(" exports"):
        return origin[: -len(" exports")]
    return permission.grantor


def _shadowed_permissions(
    rule: AnalysisPass, context: AnalysisContext
) -> Iterator[Diagnostic]:
    """A grant *broad* shadows *narrow* when it covers *narrow* read as
    a demand — every client narrow admits, asking for all it grants."""
    facts = context.facts
    index = context.index
    reported: Set[Tuple] = set()
    for server in facts.agents():
        permissions = index.permissions_for(server)
        if len(permissions) < 2:
            continue
        views = [context.view(p.variables) for p in permissions]
        demands = [
            grant_demand(p, view, facts) for p, view in zip(permissions, views)
        ]
        for i, narrow in enumerate(permissions):
            for j, broad in enumerate(permissions):
                if i == j:
                    continue
                if not covers(broad, views[j], demands[i]):
                    continue
                if covers(narrow, views[i], demands[j]):
                    continue  # mutually equivalent, not a strict shadow
                key = (_permission_key(narrow), _permission_key(broad))
                if key in reported:
                    continue
                reported.add(key)
                yield rule.diagnostic(
                    subject=_origin_subject(narrow),
                    message=(
                        f"export of {', '.join(narrow.variables)} to "
                        f"{narrow.grantee_domain!r} is wholly covered by "
                        f"the broader export of "
                        f"{', '.join(broad.variables)} to "
                        f"{broad.grantee_domain!r} at {broad.location} "
                        f"({_origin_subject(broad)})"
                    ),
                    location=narrow.location,
                    suggestion=(
                        "remove the narrower export; the broader grant "
                        "already admits every query it admits"
                    ),
                )


def _transitive_overbroad_reach(
    rule: AnalysisPass, context: AnalysisContext
) -> Iterator[Diagnostic]:
    facts = context.facts
    index = context.index
    reported: Set[Tuple] = set()
    for server in facts.agents():
        direct = facts.direct_domains(server)
        for permission in index.permissions_for(server):
            if permission.grantee_domain != PUBLIC_DOMAIN:
                continue
            if not permission.access.allows_write():
                continue
            if permission.grantor == f"instance:{server.id}":
                continue  # the element's own export: NM202 territory
            grantor_domain = permission.grantor.split(":", 1)[1]
            if grantor_domain in direct:
                continue  # direct-domain grant, visible at the element
            key = (_permission_key(permission), server.id)
            if key in reported:
                continue
            reported.add(key)
            yield rule.diagnostic(
                subject=_origin_subject(permission),
                message=(
                    f"{permission.access.value} access to "
                    f"{', '.join(permission.variables)} exported to the "
                    f"public domain reaches agent {server.id} only through "
                    f"domain containment: the exposure is invisible in the "
                    "element's own specification"
                ),
                location=permission.location,
                suggestion=(
                    "move the grant to the element's immediate domain or "
                    "tighten the umbrella export to ReadOnly"
                ),
            )


# ----------------------------------------------------------------------
# NM3xx — frequency and types.
# ----------------------------------------------------------------------
def _frequency_budget_overload(
    rule: AnalysisPass, context: AnalysisContext
) -> Iterator[Diagnostic]:
    """Sum worst-case admitted query rates per element vs its speed.

    Per reference, the worst-case rate against a server is bounded by the
    intersection of the reference's promised interval with the admitting
    permission's required interval (``FrequencySpec.intersect``); the
    per-element sum is compared against the management share
    (:data:`BUDGET_FRACTION`) of its declared interface speed.
    """
    facts = context.facts
    index = context.index
    load: Dict[str, float] = {}
    contributors: Dict[str, int] = {}
    for reference in facts.references:
        demand = reference_demand(
            reference, context.view(reference.variables)
        )
        counted: Set[str] = set()
        for server in candidate_servers(reference, facts)[0] or ():
            if server.owner_kind != "system" or server.owner in counted:
                continue
            counted.add(server.owner)
            permission = index.covering_permission(server, demand)
            effective = reference.frequency
            if permission is not None:
                effective = (
                    reference.frequency.intersect(permission.frequency)
                    or reference.frequency
                )
            rate = effective.max_rate_per_second()
            if rate == float("inf"):
                continue  # unconstrained promise: no finite bound to sum
            load[server.owner] = load.get(server.owner, 0.0) + rate
            contributors[server.owner] = contributors.get(server.owner, 0) + 1
    for system_name in sorted(load):
        system = context.specification.systems.get(system_name)
        if system is None:
            continue
        capacity = system.total_speed_bps()
        if not capacity:
            continue
        demand = load[system_name] * BITS_PER_QUERY
        budget = BUDGET_FRACTION * capacity
        if demand <= budget:
            continue
        yield rule.diagnostic(
            subject=system_name,
            message=(
                f"worst-case management load {demand:.0f} bps from "
                f"{contributors[system_name]} admitted reference(s) "
                f"exceeds {budget:.0f} bps "
                f"({BUDGET_FRACTION:.0%} of the declared {capacity} bps "
                "interface speed)"
            ),
            location=system.location,
            suggestion=(
                "lower the query frequencies, tighten the admitting "
                "exports, or raise the element's interface speed"
            ),
        )


def _has_writable_object(tree: MibTree, path: str) -> bool:
    node = tree.resolve(path)
    leaves = [node] if node.is_leaf else list(tree.leaves(node.oid))
    return not leaves or any(
        leaf.access.allows_write() for leaf in leaves
    )


def _type_access_mismatches(
    rule: AnalysisPass, context: AnalysisContext
) -> Iterator[Diagnostic]:
    tree = context.tree

    def check(subject, paths, access, location, what) -> Iterator[Diagnostic]:
        for path in paths:
            if not tree.knows(path):
                if context.is_user_type_path(path):
                    continue  # user-specified type, not MIB data
                yield rule.diagnostic(
                    subject=subject,
                    message=(
                        f"{what} names {path!r}, which is not under the "
                        "MIB registration tree: its access mode cannot be "
                        "checked"
                    ),
                    location=location,
                    severity=Severity.WARNING,
                    suggestion=(
                        "use a registered MIB path or declare the name as "
                        "a type specification"
                    ),
                )
            elif access.allows_write() and not _has_writable_object(
                tree, path
            ):
                yield rule.diagnostic(
                    subject=subject,
                    message=(
                        f"{what} needs {access.value} access to {path!r}, "
                        "but every object under that prefix is read-only "
                        "in the MIB"
                    ),
                    location=location,
                    suggestion=(
                        "target writable objects, or lower the interaction "
                        "to retrieval-only access"
                    ),
                )

    for name, process in sorted(context.specification.processes.items()):
        subject = f"process {name}"
        for query in process.queries:
            yield from check(
                subject,
                query.requests,
                query.access,
                query.location,
                f"{query.kind} clause",
            )
        for export in process.exports:
            yield from check(
                subject,
                export.variables,
                export.access,
                export.location,
                "exports clause",
            )
    for name, domain in sorted(context.specification.domains.items()):
        subject = f"domain {name}"
        for export in domain.exports:
            yield from check(
                subject,
                export.variables,
                export.access,
                export.location,
                "exports clause",
            )


# ----------------------------------------------------------------------
# Registration.
# ----------------------------------------------------------------------
def register_builtin_passes(registry: PassRegistry) -> None:
    registry.register(
        AnalysisPass(
            "NM101",
            "unused-process",
            Severity.WARNING,
            "hygiene",
            "A process specification no system or domain instantiates.",
            _unused_processes,
        )
    )
    registry.register(
        AnalysisPass(
            "NM102",
            "unmanaged-element",
            Severity.WARNING,
            "hygiene",
            "A network element with no agent process and no proxy.",
            _unmanaged_elements,
        )
    )
    registry.register(
        AnalysisPass(
            "NM103",
            "dead-extension-entry",
            Severity.WARNING,
            "hygiene",
            "An extension keyword or action row that can never fire "
            "against the base grammar.",
            _dead_extension_entries,
        )
    )
    registry.register(
        AnalysisPass(
            "NM201",
            "unused-permission",
            Severity.WARNING,
            "permissions",
            "An export no specified reference could ever use.",
            _unused_permissions,
        )
    )
    registry.register(
        AnalysisPass(
            "NM202",
            "overbroad-grant",
            Severity.ERROR,
            "permissions",
            "Write (or Any) access exported directly to the public domain.",
            _overbroad_grants,
        )
    )
    registry.register(
        AnalysisPass(
            "NM203",
            "shadowed-permission",
            Severity.WARNING,
            "permissions",
            "An export wholly covered by a strictly broader one on the "
            "same server.",
            _shadowed_permissions,
        )
    )
    registry.register(
        AnalysisPass(
            "NM204",
            "transitive-overbroad-reach",
            Severity.ERROR,
            "permissions",
            "Write (or Any) access reaching an element from the public "
            "domain through domain containment only.",
            _transitive_overbroad_reach,
        )
    )
    registry.register(
        AnalysisPass(
            "NM301",
            "frequency-budget-overload",
            Severity.ERROR,
            "frequency",
            "Worst-case admitted query rates exceeding an element's "
            "management bandwidth budget.",
            _frequency_budget_overload,
        )
    )
    registry.register(
        AnalysisPass(
            "NM302",
            "type-access-mismatch",
            Severity.ERROR,
            "type",
            "A write-capable reference or export against read-only MIB "
            "data, or a path outside the registration tree.",
            _type_access_mismatches,
        )
    )
