"""NMSL — the Network Management Specification Language (the paper's core).

The language has four kinds of specifications (paper Section 4.1):

* **type** — management data types, with embedded ASN.1 bodies (Fig 4.1/4.2);
* **process** — management clients/servers: what they support, export and
  query, with frequencies (Fig 4.3/4.4);
* **system** — network elements: hardware, interfaces, OS, supported MIB
  portion, instantiated processes (Fig 4.5/4.6);
* **domain** — administrative groupings of systems, processes and
  sub-domains, with export permissions (Fig 4.7/4.8).

The compiler is two-pass (paper Section 6): pass 1 parses the *generalized*
grammar of Figure 6.1 (any keyword-shaped specification is accepted); pass 2
runs keyword-dispatched *actions* — generic actions perform semantic checks
and build the typed specification model, output-specific actions generate
consistency facts or configuration output.  The extension mechanism
(Section 6.3) prepends keyword/action table entries, overriding or extending
the base language.
"""

from repro.nmsl.lexer import NmslToken, tokenize
from repro.nmsl.generic import Declaration, GenericClause, parse_generic
from repro.nmsl.frequency import FrequencySpec, INFREQUENT_PERIOD_SECONDS
from repro.nmsl.specs import (
    DomainSpec,
    ExportSpec,
    InterfaceSpec,
    ProcessInvocation,
    ProcessSpec,
    QuerySpec,
    Specification,
    SystemSpec,
    TypeSpec,
)
from repro.nmsl.compiler import CompilerOptions, NmslCompiler, compile_text
from repro.nmsl.extension import Extension, ExtensionAction, parse_extension
from repro.nmsl.pprint import (
    render_domain,
    render_process,
    render_specification,
    render_system,
)

__all__ = [
    "CompilerOptions",
    "Declaration",
    "DomainSpec",
    "ExportSpec",
    "Extension",
    "ExtensionAction",
    "FrequencySpec",
    "GenericClause",
    "INFREQUENT_PERIOD_SECONDS",
    "InterfaceSpec",
    "NmslCompiler",
    "NmslToken",
    "ProcessInvocation",
    "ProcessSpec",
    "QuerySpec",
    "Specification",
    "SystemSpec",
    "TypeSpec",
    "compile_text",
    "parse_extension",
    "parse_generic",
    "render_domain",
    "render_process",
    "render_specification",
    "render_system",
    "tokenize",
]
