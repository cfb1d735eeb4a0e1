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

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.nmsl.actions import OutputContext, OutputRegistry
from repro.nmsl.specs import Specification, TypeSpec

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


def _owned_lines(context: OutputContext) -> Dict[object, List[str]]:
    """The fact lines, rendered once per output context, bucketed by the
    ``(table, name)`` owner :meth:`FactSet.base_facts` names (``None``:
    the whole-specification facts)."""
    owned = context.options.get("owned_lines")
    if owned is None:
        from repro.consistency.facts import clpr_fact

        owned = context.options["owned_lines"] = {}
        for owner, fact in _facts(context).base_facts():
            owned.setdefault(owner, []).append(clpr_fact(fact))
    return owned


def _owned_action(table: str):
    def action(context: OutputContext, spec) -> Optional[str]:
        return "\n".join(_owned_lines(context).get((table, spec.name), ()))

    return action


consistency_process_action = _owned_action("processes")
consistency_system_action = _owned_action("systems")
consistency_domain_action = _owned_action("domains")


def consistency_type_action(context: OutputContext, spec: TypeSpec) -> Optional[str]:
    from repro.clpr.pretty import atom_text

    lines = [f"nm_type({atom_text(spec.name)})."]
    if spec.access is not None:
        lines.append(
            f"type_access({atom_text(spec.name)}, {spec.access.value.lower()})."
        )
    return "\n".join(lines)


def consistency_epilogue_action(
    context: OutputContext, spec: Specification
) -> Optional[str]:
    return "\n".join(_owned_lines(context).get(None, ()))


def register_base_outputs(registry: OutputRegistry) -> None:
    """Install the basic-language consistency actions."""
    registry.register(CONSISTENCY_TAG, "type", consistency_type_action)
    registry.register(CONSISTENCY_TAG, "process", consistency_process_action)
    registry.register(CONSISTENCY_TAG, "system", consistency_system_action)
    registry.register(CONSISTENCY_TAG, "domain", consistency_domain_action)
    registry.register(CONSISTENCY_TAG, EPILOGUE, consistency_epilogue_action)
