"""Configuration Generators — NMSL's prescriptive aspect (paper Section 5).

"A NMSL Configuration Generator takes output from the NMSL Compiler and
uses it to configure a network manager. ... a separate module that
interprets the configuration output of the compiler and performs the
implementation-specific actions necessary to install the configuration in
a network management process."

Output types registered here (Section 6.2 names actions by the output
type they generate, e.g. ``BartsSnmpd``):

* ``BartsSnmpd`` — an ``snmpd.conf``-style community/view/ACL file per
  network element (:mod:`repro.codegen.snmpd`);
* ``acl-table`` — a protocol-independent tabular ACL
  (:mod:`repro.codegen.acl`);
* ``osi`` — an OSI-organisational-model rendering: domains, ports,
  exposed objects (:mod:`repro.codegen.osi`).

Output is attributed to elements, one document each, by
:func:`repro.codegen.base.element_documents`.  Shipping
(Section 5 lists three ways) lives in
:mod:`repro.codegen.transport`: the management protocol itself (see
:class:`repro.netsim.processes.ManagementRuntime` for the live version),
a file copy, or electronic mail to the element's administrator — the
latter two simulated as spool directories.
"""

from repro.codegen.base import ConfigurationGenerator, GeneratedConfig
from repro.codegen.snmpd import SNMPD_TAG, register_snmpd_outputs
from repro.codegen.acl import ACL_TAG, register_acl_outputs
from repro.codegen.osi import OSI_TAG, register_osi_outputs
from repro.codegen.transport import (
    CallbackTransport,
    FileDropTransport,
    MailSpoolTransport,
    ShipmentRecord,
    Transport,
)


def register_all(registry) -> None:
    """Install every basic configuration output type."""
    register_snmpd_outputs(registry)
    register_acl_outputs(registry)
    register_osi_outputs(registry)


__all__ = [
    "ACL_TAG",
    "CallbackTransport",
    "ConfigurationGenerator",
    "FileDropTransport",
    "GeneratedConfig",
    "MailSpoolTransport",
    "OSI_TAG",
    "SNMPD_TAG",
    "ShipmentRecord",
    "Transport",
    "register_acl_outputs",
    "register_all",
    "register_osi_outputs",
    "register_snmpd_outputs",
]
