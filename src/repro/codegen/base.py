"""The Configuration Generator: compiler output -> shipped configurations.

Ties an :class:`~repro.nmsl.compiler.NmslCompiler` run to the transports:
:meth:`ConfigurationGenerator.documents` attributes the requested output
type's units to network elements, one document per element, and every
consumer reads it — :meth:`~ConfigurationGenerator.ship`, the paper's
distributed generation (:meth:`~ConfigurationGenerator.generate_for_element`,
one element's document) and the simulated network's install, rollout and
heal (:mod:`repro.netsim.processes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import CodegenError
from repro.nmsl.compiler import CompileResult, NmslCompiler
from repro.codegen.transport import ShipmentRecord, Transport


@dataclass
class GeneratedConfig:
    """Configuration text attributed to one network element."""

    element: str
    tag: str
    text: str


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
        """element -> the configuration document it runs, for *tag*.

        One compiler run per tag serves every element (centralized
        generation) and every later call.  A document is the element's
        output units joined with ``"\\n"`` in output order: a system unit
        belongs to the system, a domain unit to every member, a process
        unit to every system instantiating the process, and the
        whole-specification epilogue to nobody.
        """
        documents = self._documents.get(tag)
        if documents is not None:
            return documents
        bundle = self._compiler.generate(tag, self._result, facts=self._facts)
        chunks: Dict[str, List[str]] = {}
        specification = self._result.specification
        for unit in bundle.units:
            if not unit.text:
                continue
            if unit.decltype == "system":
                elements = [unit.name]
            elif unit.decltype == "domain":
                domain = specification.domains.get(unit.name)
                elements = domain.systems if domain is not None else []
            elif unit.decltype == "process":
                elements = [
                    system.name
                    for system in specification.systems.values()
                    if any(
                        invocation.process_name == unit.name
                        for invocation in system.processes
                    )
                ]
            else:  # the epilogue
                continue
            for element in elements:
                chunks.setdefault(element, []).append(unit.text)
        documents = self._documents[tag] = {
            element: "\n".join(texts) for element, texts in chunks.items()
        }
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
