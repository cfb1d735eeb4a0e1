"""Static analysis of NMSL specifications.

The descriptive aspect of the paper is a whole-spec static property;
this package generalizes the seed linter into a proper analysis
framework: a :class:`Diagnostic` model with stable codes, severities and
source spans, a :class:`PassRegistry` of semantic passes, text/JSON/
SARIF 2.1.0 renderers, and a baseline-suppression file for CI gating.

Typical use::

    from repro.analysis import analyze_specification
    report = analyze_specification(result.specification, compiler.tree,
                                   filename="internet.nmsl")
    print(report.render())

or, via the compiler (carries extension-table context for NM103)::

    context = compiler.analysis_context(result)
    report = default_registry().run(context)
"""

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.registry import (
    AnalysisPass,
    PassRegistry,
    default_registry,
)
from repro.analysis.relational import (
    Waiver,
    check_revisions,
    register_relational_passes,
    relational_registry,
    relational_report,
)
from repro.analysis.render import (
    render,
    render_json,
    render_sarif,
    render_text,
)

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisReport",
    "Baseline",
    "BaselineError",
    "Diagnostic",
    "PassRegistry",
    "Severity",
    "Waiver",
    "analyze_specification",
    "check_revisions",
    "default_registry",
    "register_relational_passes",
    "relational_registry",
    "relational_report",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
]


def analyze_specification(
    specification,
    tree,
    filename: str = "<nmsl>",
    codes=None,
    registry: "PassRegistry" = None,
) -> AnalysisReport:
    """Run the (selected) analysis passes over a compiled specification."""
    context = AnalysisContext(
        specification=specification, tree=tree, filename=filename
    )
    return (registry or default_registry()).run(context, codes=codes)
