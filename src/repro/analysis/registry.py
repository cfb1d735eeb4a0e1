"""The analysis-pass registry.

Each pass is a named :class:`AnalysisPass`: a stable diagnostic code, a
slug, a default severity, and a function from :class:`AnalysisContext`
to an iterable of :class:`Diagnostic` findings.  The registry runs a
selected subset (or all) of its passes and returns a deterministic
:class:`AnalysisReport`: findings are de-duplicated on (fingerprint,
location) and sorted by source position, so two runs over the same
specification produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SourceLocation
from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity

PassFunction = Callable[["AnalysisPass", AnalysisContext], Iterable[Diagnostic]]


@dataclass(frozen=True)
class AnalysisPass:
    """One registered analysis pass."""

    code: str  # "NM101"
    slug: str  # "unused-process"
    severity: Severity  # default severity of this pass's findings
    category: str  # "hygiene" | "permissions" | "frequency" | "type"
    summary: str  # one-line rule description (shown in SARIF rules)
    run: PassFunction

    def diagnostic(
        self,
        subject: str,
        message: str,
        location: Optional[SourceLocation] = None,
        severity: Optional[Severity] = None,
        suggestion: str = "",
    ) -> Diagnostic:
        """A finding of this pass (severity defaults to the pass's)."""
        return Diagnostic(
            code=self.code,
            slug=self.slug,
            severity=severity or self.severity,
            subject=subject,
            message=message,
            location=location or SourceLocation(),
            suggestion=suggestion,
        )


class PassRegistry:
    """Ordered collection of analysis passes, keyed by code."""

    def __init__(self) -> None:
        self._passes: Dict[str, AnalysisPass] = {}

    def register(self, analysis_pass: AnalysisPass) -> AnalysisPass:
        if analysis_pass.code in self._passes:
            raise ValueError(
                f"duplicate analysis pass code {analysis_pass.code!r}"
            )
        self._passes[analysis_pass.code] = analysis_pass
        return analysis_pass

    def passes(
        self, codes: Optional[Sequence[str]] = None
    ) -> Tuple[AnalysisPass, ...]:
        if codes is None:
            return tuple(self._passes.values())
        unknown = [code for code in codes if code not in self._passes]
        if unknown:
            known = ", ".join(sorted(self._passes))
            raise KeyError(
                f"unknown diagnostic code(s) {', '.join(unknown)} "
                f"(known: {known})"
            )
        wanted = set(codes)
        return tuple(p for p in self._passes.values() if p.code in wanted)

    def pass_for(self, code: str) -> AnalysisPass:
        return self._passes[code]

    def run(
        self,
        context: AnalysisContext,
        codes: Optional[Sequence[str]] = None,
    ) -> AnalysisReport:
        """Run the selected passes and return a deterministic report."""
        return collate(
            diagnostic
            for analysis_pass in self.passes(codes)
            for diagnostic in analysis_pass.run(analysis_pass, context)
        )


def collate(findings: Iterable[Diagnostic]) -> AnalysisReport:
    """The report of *findings*, given in pass order: the first of each
    (fingerprint, location) kept, sorted by source position."""
    kept: List[Diagnostic] = []
    seen: set = set()
    for diagnostic in findings:
        key = (diagnostic.fingerprint(), diagnostic.location)
        if key not in seen:
            seen.add(key)
            kept.append(diagnostic)
    kept.sort(key=Diagnostic.sort_key)
    return AnalysisReport(kept)


def default_registry() -> PassRegistry:
    """A fresh registry holding every built-in pass."""
    from repro.analysis.passes import register_builtin_passes

    registry = PassRegistry()
    register_builtin_passes(registry)
    return registry
