"""NMSL: Specification and Verification of Network Managers for Large Internets.

A from-scratch reproduction of Cohrs & Miller (SIGCOMM 1989).  The public
API re-exports the pieces a user typically composes:

>>> from repro import NmslCompiler, ConsistencyChecker
>>> compiler = NmslCompiler()
>>> result = compiler.compile(open("internet.nmsl").read())
>>> outcome = ConsistencyChecker(result.specification, compiler.tree).check()
>>> print(outcome.render())

Subpackages
-----------
``repro.nmsl``
    The specification language: lexer, generalized parser (pass 1),
    action-driven semantics (pass 2), extension mechanism, compiler.
``repro.consistency``
    The consistency model of Figure 4.9, the one checker, the oracle
    table beside it (scan, faithful CLP(R), datalog), and the
    speculative/reverse modes.
``repro.codegen``
    Configuration Generators (snmpd-style, ACL table, OSI) and shipping
    transports.
``repro.clpr``
    The CLP(R) substrate: SLD resolution + linear real constraints.
``repro.asn1`` / ``repro.mib`` / ``repro.snmp``
    ASN.1 subset + BER, the RFC 1066 MIB-I, and an SNMPv1 subset.
``repro.netsim``
    The discrete-event internet simulator and the runtime verifier.
``repro.workloads``
    The paper's verbatim examples, a campus scenario, and synthetic
    internets for the scale evaluation.
"""

from repro.nmsl.compiler import (
    CompileResult,
    CompilerOptions,
    NmslCompiler,
    compile_text,
)
from repro.nmsl.extension import Extension, ExtensionAction, parse_extension
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.oracles import check_with_clpr
from repro.consistency.report import ConsistencyResult, Inconsistency, InconsistencyKind
from repro.consistency.speculative import SpeculativeChecker, solve_for_frequency
from repro.codegen.base import ConfigurationGenerator
from repro.codegen.transport import (
    CallbackTransport,
    FileDropTransport,
    MailSpoolTransport,
    ReliableTransport,
)
from repro.netsim.processes import ManagementRuntime
from repro.netsim.monitor import RuntimeVerifier
from repro.netsim.faults import FaultInjector, FaultSpec
from repro.rollout import (
    RetryPolicy,
    RolloutCoordinator,
    RolloutReport,
    RolloutState,
)

__version__ = "1.0.0"

__all__ = [
    "CallbackTransport",
    "CompileResult",
    "CompilerOptions",
    "ConfigurationGenerator",
    "ConsistencyChecker",
    "ConsistencyResult",
    "Extension",
    "ExtensionAction",
    "FaultInjector",
    "FaultSpec",
    "FileDropTransport",
    "Inconsistency",
    "InconsistencyKind",
    "MailSpoolTransport",
    "ManagementRuntime",
    "NmslCompiler",
    "ReliableTransport",
    "RetryPolicy",
    "RolloutCoordinator",
    "RolloutReport",
    "RolloutState",
    "RuntimeVerifier",
    "SpeculativeChecker",
    "check_with_clpr",
    "compile_text",
    "parse_extension",
    "solve_for_frequency",
]
