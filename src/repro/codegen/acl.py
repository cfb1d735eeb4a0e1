"""The ``acl-table`` output type: a protocol-independent access table.

One row per (grantor, grantee, variable subtree): the most portable
rendering of the permission relations, suitable for managers that are not
SNMP daemons.  Columns are tab-separated::

    grantor	grantee	variables	access	min-period-seconds
"""

from __future__ import annotations

from typing import Optional

from repro.nmsl.actions import OutputContext, OutputRegistry
from repro.nmsl.outputs import _facts
from repro.nmsl.specs import DomainSpec, ProcessSpec

ACL_TAG = "acl-table"

HEADER = "grantor\tgrantee\tvariables\taccess\tmin-period-seconds"


def _rows(context: OutputContext, grantors) -> Optional[str]:
    """The rows of *grantors*' permissions, each grantor's in order."""
    by_grantor = _facts(context).permissions_by_grantor()
    rows = [
        "\t".join(
            (
                permission.grantor,
                permission.grantee_domain,
                ",".join(permission.variables),
                permission.access.value,
                f"{permission.frequency.min_period:g}",
            )
        )
        for grantor in grantors
        for permission in by_grantor.get(grantor, ())
    ]
    return "\n".join(rows) if rows else None


def acl_process_action(context: OutputContext, spec: ProcessSpec) -> Optional[str]:
    if not spec.exports:
        return None
    return _rows(
        context,
        (
            f"instance:{instance.id}"
            for instance in _facts(context).instances_of_process(spec.name)
        ),
    )


def acl_domain_action(context: OutputContext, spec: DomainSpec) -> Optional[str]:
    if not spec.exports:
        return None
    return _rows(context, (f"domain:{spec.name}",))


def register_acl_outputs(registry: OutputRegistry) -> None:
    registry.register(ACL_TAG, "process", acl_process_action)
    registry.register(ACL_TAG, "domain", acl_domain_action)
