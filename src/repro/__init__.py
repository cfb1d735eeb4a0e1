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
    table beside it (scan, faithful CLP(R)), and the
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

import importlib

__version__ = "1.0.0"

#: Public name -> defining module.  Resolved on first access (PEP 562),
#: so ``import repro.anything`` pays only for what it uses.
_EXPORTS = {
    "CallbackTransport": "repro.codegen.transport",
    "CompileResult": "repro.nmsl.compiler",
    "CompilerOptions": "repro.nmsl.compiler",
    "ConfigurationGenerator": "repro.codegen.base",
    "ConsistencyChecker": "repro.consistency.checker",
    "ConsistencyResult": "repro.consistency.report",
    "Extension": "repro.nmsl.extension",
    "ExtensionAction": "repro.nmsl.extension",
    "FaultInjector": "repro.netsim.faults",
    "FaultSpec": "repro.netsim.faults",
    "FileDropTransport": "repro.codegen.transport",
    "Inconsistency": "repro.consistency.report",
    "InconsistencyKind": "repro.consistency.report",
    "MailSpoolTransport": "repro.codegen.transport",
    "ManagementRuntime": "repro.netsim.processes",
    "NmslCompiler": "repro.nmsl.compiler",
    "ReliableTransport": "repro.codegen.transport",
    "RetryPolicy": "repro.rollout",
    "RolloutCoordinator": "repro.rollout",
    "RolloutReport": "repro.rollout",
    "RolloutState": "repro.rollout",
    "RuntimeVerifier": "repro.netsim.monitor",
    "SpeculativeChecker": "repro.consistency.speculative",
    "check_with_clpr": "repro.consistency.oracles",
    "compile_text": "repro.nmsl.compiler",
    "parse_extension": "repro.nmsl.extension",
    "solve_for_frequency": "repro.consistency.speculative",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
