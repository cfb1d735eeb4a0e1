"""The Configuration Generator: compiler output -> shipped configurations.

:func:`element_documents` is the one attribution rule.  Shipping, the
paper's distributed generation (one element's document), the simulated
network's install, rollout and heal (:mod:`repro.netsim.processes`) and
the relational diff's fingerprints (:mod:`repro.consistency.impact`)
all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CodegenError
from repro.mib.tree import MibTree
from repro.nmsl.actions import OutputRegistry
from repro.nmsl.compiler import CompileResult, NmslCompiler, generation
from repro.nmsl.extension import ClauseRenderer
from repro.nmsl.outputs import _facts
from repro.nmsl.specs import Specification
from repro.codegen.transport import ShipmentRecord, Transport


@dataclass
class GeneratedConfig:
    """Configuration text attributed to one network element."""

    element: str
    tag: str
    text: str


def element_documents(
    specification: Specification,
    tag: str,
    registry: OutputRegistry,
    *,
    tree: MibTree,
    facts=None,
    elements: Optional[Iterable[str]] = None,
    clause_actions: Mapping[Tuple[str, str, str], ClauseRenderer],
) -> Dict[str, str]:
    """element -> the configuration document it runs, for *tag*.

    A document is the element's output units joined with ``"\\n"``:
    those of the process types it instantiates, its own ``system``
    unit, then those of the domains that list it, each kind in table
    order — so the order declarations are written in moves no byte.  A
    unit is a declaration's action output followed by its extension
    clauses' (*clause_actions*); ``type`` units and the epilogue belong
    to no element.  *elements* scopes the call to the named elements, at
    a cost in the size of the scope; a scoped document is the unscoped
    one.  *facts* is the specification's fact set, when the caller
    holds it.
    """
    with generation(
        tag, specification, registry, clause_actions, tree=tree, facts=facts
    ) as run:
        # Who is in scope, which domains list them and which process
        # types they instantiate are looked up from the names: a scoped
        # call walks no system or domain table.
        facts = _facts(run.context)
        direct = facts.owners.direct
        # (A dict, not a set: documents are listed in table order.)
        scope = dict.fromkeys(
            (*specification.systems, *direct) if elements is None else elements
        )
        table = specification.systems
        systems = [table[name] for name in scope if name in table]
        instantiators: Dict[str, List[str]] = {}
        for system in systems:
            for process_name in dict.fromkeys(
                invocation.process_name for invocation in system.processes
            ):
                instantiators.setdefault(process_name, []).append(system.name)
        chunks: Dict[str, List[str]] = {}

        def deliver(decltype: str, spec, members) -> None:
            text = run.unit(decltype, spec.name, spec)
            if text:
                for member in members:
                    chunks.setdefault(member, []).append(text)

        for process in specification.processes.values():
            if process.name in instantiators:
                deliver("process", process, instantiators[process.name])
        for system in systems:
            deliver("system", system, (system.name,))
        for name in sorted(
            {domain for name in scope for domain in direct.get(name, ())},
            key=facts.owner_ranks()[1].__getitem__,
        ):
            domain = specification.domains[name]
            deliver("domain", domain, [m for m in domain.systems if m in scope])
    return {
        element: "\n".join(chunks[element])
        for element in scope
        if element in chunks
    }


class ConfigurationGenerator:
    """Generates and ships per-element configuration."""

    def __init__(self, compiler: NmslCompiler, result: CompileResult, facts=None):
        self._compiler = compiler
        self._result = result
        self._facts = facts
        self._documents: Dict[str, Dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Generation.
    # ------------------------------------------------------------------
    def documents(self, tag: str) -> Dict[str, str]:
        """:func:`element_documents` of every element, computed once per
        tag (centralized generation) and read by every later call."""
        documents = self._documents.get(tag)
        if documents is None:
            compiler = self._compiler
            documents = self._documents[tag] = element_documents(
                self._result.specification, tag, compiler.registry,
                tree=compiler.tree, facts=self._facts,
                clause_actions=compiler.clause_actions,
            )
        return documents

    def generate_for_element(self, tag: str, element: str) -> GeneratedConfig:
        """Distributed generation: just one element's document.

        "If a process's configuration depends only on its own
        specification, the configuration information for that process can
        be generated from its specification alone" (Section 5).
        """
        text = self.documents(tag).get(element)
        if text is None:
            raise CodegenError(
                f"output type {tag!r} produced no configuration for {element!r}"
            )
        return GeneratedConfig(element, tag, text)

    # ------------------------------------------------------------------
    # Shipping.
    # ------------------------------------------------------------------
    def ship(
        self, tag: str, transport: Transport, elements: Optional[Sequence[str]] = None
    ) -> List[ShipmentRecord]:
        """Deliver each element its document, one shipment per element."""
        return [
            transport.deliver(element, text + "\n")
            for element, text in sorted(self.documents(tag).items())
            if elements is None or element in elements
        ]
