"""The Configuration Generator: compiler output -> shipped configurations.

Ties an :class:`~repro.nmsl.compiler.NmslCompiler` run to the transports:
generate the requested output type, split it per network element, and
deliver each element's configuration.  Supports both centralized
generation (one generator produces everything, paper's default) and
distributed generation (per-element generation, the paper's suggested
scaling refinement) — the prescriptive benchmark compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import CodegenError
from repro.nmsl.compiler import CompileResult, NmslCompiler, OutputBundle
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
        self._bundles: Dict[str, OutputBundle] = {}

    # ------------------------------------------------------------------
    # Generation.
    # ------------------------------------------------------------------
    def generate(self, tag: str) -> List[GeneratedConfig]:
        """Centralized generation: one compiler run for all elements."""
        return self._split_per_element(tag, self._bundle(tag))

    def _bundle(self, tag: str) -> OutputBundle:
        """The compiler's output for *tag*, generated once per instance."""
        bundle = self._bundles.get(tag)
        if bundle is None:
            bundle = self._bundles[tag] = self._compiler.generate(
                tag, self._result, facts=self._facts
            )
        return bundle

    def generate_for_element(self, tag: str, element: str) -> GeneratedConfig:
        """Distributed generation: regenerate just one element's config.

        "If a process's configuration depends only on its own
        specification, the configuration information for that process can
        be generated from its specification alone" (Section 5).
        """
        for config in self._split_per_element(tag, self._bundle(tag)):
            if config.element == element:
                return config
        raise CodegenError(
            f"output type {tag!r} produced no configuration for {element!r}"
        )

    def _split_per_element(
        self, tag: str, bundle: OutputBundle
    ) -> List[GeneratedConfig]:
        configs: List[GeneratedConfig] = []
        specification = self._result.specification
        for unit in bundle.units:
            if not unit.text:
                continue
            if unit.decltype == "system":
                configs.append(GeneratedConfig(unit.name, tag, unit.text))
            elif unit.decltype == "domain":
                # Domain-level output is delivered to every member element.
                domain = specification.domains.get(unit.name)
                if domain is None:
                    continue
                for system_name in domain.systems:
                    configs.append(
                        GeneratedConfig(system_name, tag, unit.text)
                    )
            elif unit.decltype == "process":
                # Process-level output goes to each element instantiating it.
                for system in specification.systems.values():
                    if any(
                        invocation.process_name == unit.name
                        for invocation in system.processes
                    ):
                        configs.append(
                            GeneratedConfig(system.name, tag, unit.text)
                        )
        return configs

    # ------------------------------------------------------------------
    # Shipping.
    # ------------------------------------------------------------------
    def ship(
        self, tag: str, transport: Transport, elements: Optional[Sequence[str]] = None
    ) -> List[ShipmentRecord]:
        """Generate and deliver configuration, one shipment per element.

        Multiple chunks for the same element are concatenated so each
        element receives a single configuration document.
        """
        merged: Dict[str, List[str]] = {}
        for config in self.generate(tag):
            if elements is not None and config.element not in elements:
                continue
            merged.setdefault(config.element, []).append(config.text)
        records = []
        for element, chunks in sorted(merged.items()):
            records.append(transport.deliver(element, "\n".join(chunks) + "\n"))
        return records
