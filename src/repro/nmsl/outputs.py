"""Basic-language output actions: the ``consistency`` output type.

"Requesting consistency output causes the actions tagged ``consistency``
to be executed, and Prolog rules to be generated" (paper Section 6.2).
Each action renders the facts contributed by one declaration; the
``*`` epilogue action contributes whole-specification facts (the
``data_covers`` closure over mentioned MIB paths and the access-mode
lattice).

Configuration-output actions (``BartsSnmpd`` etc.) are registered by
:mod:`repro.codegen`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.nmsl.actions import OutputContext, OutputRegistry
from repro.nmsl.specs import (
    DomainSpec,
    ProcessSpec,
    Specification,
    SystemSpec,
    TypeSpec,
)

# repro.consistency is built on repro.nmsl's specs, so this module names
# it only inside functions: either package imports first, on its own.
if TYPE_CHECKING:
    from repro.consistency.facts import FactSet

CONSISTENCY_TAG = "consistency"

#: Pseudo-decltype for whole-specification epilogue actions.
EPILOGUE = "*"


def _facts(context: OutputContext) -> FactSet:
    """The FactSet of this generation run: the one it was handed (the
    checker's), else expanded once here with interned MIB views."""
    cached = context.options.get("facts")
    if cached is None:
        from repro.consistency.facts import IncrementalFactGenerator

        cached = IncrementalFactGenerator(context.options["tree"]).generate(
            context.specification
        )
        context.options["facts"] = cached
    return cached


def atom_text(text) -> str:
    from repro.consistency.facts import _atom

    return _atom(text)


def _select(text: str, pairs) -> str:
    """Lines matching any (prefix, needle) pair."""
    lines = []
    for line in text.splitlines():
        for prefix, needle in pairs:
            if line.startswith(prefix) and needle in line:
                lines.append(line)
                break
    return "\n".join(lines)


def consistency_type_action(context: OutputContext, spec: TypeSpec) -> Optional[str]:
    lines = [f"nm_type({atom_text(spec.name)})."]
    if spec.access is not None:
        lines.append(
            f"type_access({atom_text(spec.name)}, {spec.access.value.lower()})."
        )
    return "\n".join(lines)


def consistency_process_action(
    context: OutputContext, spec: ProcessSpec
) -> Optional[str]:
    full = _facts(context).to_clpr_text()
    name = atom_text(spec.name)
    return _select(
        full,
        (
            ("proc_supports(", f"proc_supports({name},"),
            ("proc_export(", f"proc_export({name},"),
            ("proc_query(", f"proc_query({name},"),
        ),
    )


def consistency_system_action(
    context: OutputContext, spec: SystemSpec
) -> Optional[str]:
    full = _facts(context).to_clpr_text()
    name = atom_text(spec.name)
    return _select(
        full,
        (
            ("instance(", f", {name},"),
            ("inst_arg(", f"@{spec.name}#"),
            ("system_supports(", f"system_supports({name},"),
            ("speed(", f"speed({name},"),
            ("contains(system", f"contains(system({name})"),
        ),
    )


def consistency_domain_action(
    context: OutputContext, spec: DomainSpec
) -> Optional[str]:
    full = _facts(context).to_clpr_text()
    name = atom_text(spec.name)
    return _select(
        full,
        (
            ("contains(domain", f"contains(domain({name}),"),
            ("dom_export(", f"dom_export({name},"),
        ),
    )


def consistency_epilogue_action(
    context: OutputContext, spec: Specification
) -> Optional[str]:
    full = _facts(context).to_clpr_text()
    lines = [
        line
        for line in full.splitlines()
        if line.startswith(("data_covers(", "access_covers("))
    ]
    return "\n".join(lines)


def register_base_outputs(registry: OutputRegistry) -> None:
    """Install the basic-language consistency actions."""
    registry.register(CONSISTENCY_TAG, "type", consistency_type_action)
    registry.register(CONSISTENCY_TAG, "process", consistency_process_action)
    registry.register(CONSISTENCY_TAG, "system", consistency_system_action)
    registry.register(CONSISTENCY_TAG, "domain", consistency_domain_action)
    registry.register(CONSISTENCY_TAG, EPILOGUE, consistency_epilogue_action)
