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

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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


def atom_text(text) -> str:
    from repro.consistency.facts import _atom

    return _atom(text)


#: Which lines of the fact text each table's action emits: a line is a
#: declaration's when it starts with *prefix* and holds *head*, then the
#: declaration's name (as an atom, or as written), then *tail*.
_SELECTORS = {
    "processes": (
        ("proc_supports(", "proc_supports(", ",", atom_text),
        ("proc_export(", "proc_export(", ",", atom_text),
        ("proc_query(", "proc_query(", ",", atom_text),
    ),
    "systems": (
        ("instance(", ", ", ",", atom_text),
        ("inst_arg(", "@", "#", str),
        ("system_supports(", "system_supports(", ",", atom_text),
        ("speed(", "speed(", ",", atom_text),
        ("contains(system", "contains(system(", ")", atom_text),
    ),
    "domains": (
        ("contains(domain", "contains(domain(", "),", atom_text),
        ("dom_export(", "dom_export(", ",", atom_text),
    ),
}


def _between(line: str, head: str, tail: str) -> List[str]:
    """Every *name* with ``head + name + tail`` in *line* (no head or
    tail above overlaps itself, so non-overlapping matches find all)."""
    ends = [match.start() for match in re.finditer(re.escape(tail), line)]
    return [
        line[match.end():end]
        for match in re.finditer(re.escape(head), line)
        for end in ends
        if end >= match.end()
    ]


def _owned_lines(context: OutputContext):
    """The fact text's lines, rendered once per output context, and the
    positions of each declaration's by ``(table, name)``: one pass, where
    filtering the whole text per declaration was quadratic."""
    got = context.options.get("owned_lines")
    if got is None:
        selectors = [
            (prefix, head, tail, table, {
                key(spec.name): spec.name
                for spec in getattr(context.specification, table).values()
            })
            for table, rules in _SELECTORS.items()
            for prefix, head, tail, key in rules
        ]
        lines = _facts(context).to_clpr_text().splitlines()
        owned: Dict[Tuple[str, str], List[int]] = {}
        for position, line in enumerate(lines):
            for owner in {
                (table, names[key])
                for prefix, head, tail, table, names in selectors
                if line.startswith(prefix)
                for key in _between(line, head, tail)
                if key in names
            }:
                owned.setdefault(owner, []).append(position)
        got = context.options["owned_lines"] = (lines, owned)
    return got


def _owned_action(table: str):
    def action(context: OutputContext, spec) -> Optional[str]:
        lines, owned = _owned_lines(context)
        return "\n".join(lines[at] for at in owned.get((table, spec.name), ()))

    return action


consistency_process_action = _owned_action("processes")
consistency_system_action = _owned_action("systems")
consistency_domain_action = _owned_action("domains")


def consistency_type_action(context: OutputContext, spec: TypeSpec) -> Optional[str]:
    lines = [f"nm_type({atom_text(spec.name)})."]
    if spec.access is not None:
        lines.append(
            f"type_access({atom_text(spec.name)}, {spec.access.value.lower()})."
        )
    return "\n".join(lines)


def consistency_epilogue_action(
    context: OutputContext, spec: Specification
) -> Optional[str]:
    lines, _owned = _owned_lines(context)
    return "\n".join(
        line
        for line in lines
        if line.startswith(("data_covers(", "access_covers("))
    )


def register_base_outputs(registry: OutputRegistry) -> None:
    """Install the basic-language consistency actions."""
    registry.register(CONSISTENCY_TAG, "type", consistency_type_action)
    registry.register(CONSISTENCY_TAG, "process", consistency_process_action)
    registry.register(CONSISTENCY_TAG, "system", consistency_system_action)
    registry.register(CONSISTENCY_TAG, "domain", consistency_domain_action)
    registry.register(CONSISTENCY_TAG, EPILOGUE, consistency_epilogue_action)
