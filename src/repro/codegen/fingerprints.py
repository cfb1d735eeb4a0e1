"""Per-element configuration content fingerprints.

The relational diff (:mod:`repro.consistency.impact`) needs to know which
generated configurations change byte-wise between two spec revisions —
without round-tripping through source text and parse declarations, which
paper-scale workloads never have (they build typed specifications
directly).  This module re-implements the attribution rule of
:meth:`repro.codegen.base.ConfigurationGenerator.documents` against a
typed :class:`~repro.nmsl.specs.Specification`:

* ``system`` output belongs to the system itself;
* ``domain`` output is delivered to every member system;
* ``process`` output goes to each system instantiating the process;
* the ``*`` epilogue is whole-specification output and belongs to no
  element, so it is ignored here too.

Each element's chunks are joined exactly as a document is, and shipped
(``"\\n".join(chunks) + "\\n"``), before hashing, so two revisions agree
on an element's fingerprint iff the shipped document would be
byte-identical.  The *canonical order* here is systems, then domains,
then processes (the declaration-interleaved generator may order chunks
differently for multi-chunk elements); fingerprints are only ever
compared against other fingerprints from this module.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

from repro.nmsl.actions import OutputContext, OutputRegistry
from repro.nmsl.outputs import _facts


def default_fingerprint_registry() -> OutputRegistry:
    """A fresh registry with every basic configuration output installed."""
    from repro.codegen import register_all

    registry = OutputRegistry()
    register_all(registry)
    return registry


def config_fingerprints(
    specification,
    tree,
    *,
    tags: Iterable[str],
    elements: Optional[Iterable[str]] = None,
    facts=None,
    registry: Optional[OutputRegistry] = None,
) -> Dict[str, Dict[str, str]]:
    """``tag -> element -> sha256`` content fingerprints.

    *elements* scopes the computation: only configurations delivered to
    one of the named elements are generated and hashed, at a cost in
    the size of the scope, and a scoped element's fingerprint equals its
    unscoped one (attribution never depends on what else is in scope).
    Pass the checker's warm *facts* to skip a fresh fact expansion —
    essential on the near-O(change) diff budget.
    """
    if registry is None:
        registry = default_fingerprint_registry()
    options: Dict[str, object] = {"tree": tree, "module": None}
    if facts is not None:
        options["facts"] = facts
    context = OutputContext(specification=specification, options=options)
    # Who is in scope, which domains deliver to them (in declaration
    # order) and which process types they instantiate are all looked up
    # from the names: a scoped call walks no system or domain table.
    facts = _facts(context)
    direct = facts.owners.direct
    # (A dict, not a set: the result lists elements in table order.)
    scope = dict.fromkeys(
        (*specification.systems, *direct) if elements is None else elements
    )
    systems = [
        specification.systems[name]
        for name in scope
        if name in specification.systems
    ]
    deliveries = [
        (
            specification.domains[name],
            [m for m in specification.domains[name].systems if m in scope],
        )
        for name in sorted(
            {domain for name in scope for domain in direct.get(name, ())},
            key=facts.owner_ranks()[1].__getitem__,
        )
    ]
    instantiators: Dict[str, List[str]] = {}
    for system in systems:
        for process_name in dict.fromkeys(
            invocation.process_name for invocation in system.processes
        ):
            instantiators.setdefault(process_name, []).append(system.name)

    fingerprints: Dict[str, Dict[str, str]] = {}
    for tag in tags:
        chunks: Dict[str, List[str]] = {}

        def deliver(element: str, text: Optional[str]) -> None:
            if text:
                chunks.setdefault(element, []).append(text)

        system_action = registry.lookup(tag, "system")
        if system_action is not None:
            for system in systems:
                deliver(system.name, system_action(context, system))
        domain_action = registry.lookup(tag, "domain")
        if domain_action is not None:
            for domain, members in deliveries:
                text = domain_action(context, domain)
                for name in members:
                    deliver(name, text)
        process_action = registry.lookup(tag, "process")
        if process_action is not None and instantiators:
            for process in specification.processes.values():
                if process.name in instantiators:
                    text = process_action(context, process)
                    for name in instantiators[process.name]:
                        deliver(name, text)
        fingerprints[tag] = {
            element: hashlib.sha256(
                ("\n".join(parts) + "\n").encode("utf-8")
            ).hexdigest()
            for element, parts in chunks.items()
        }
    return fingerprints
