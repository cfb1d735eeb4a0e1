"""The NM4xx family: relational (differential) diagnostics.

Where NM1xx–NM3xx judge one specification in isolation, NM4xx judges the
**change** between two revisions, rendered from a
:class:`repro.consistency.impact.ImpactSet`:

========  ============================  ========  =============================
code      slug                          severity  fires when
========  ============================  ========  =============================
NM401     access-widened-grant          error     a B-side grant confers
                                                  authority no A-side grant of
                                                  the same grantor covered
NM402     verdict-flipped-reference     error*    a reference's consistency
                                                  verdict differs between A
                                                  and B (*broke = error,
                                                  changed = warning,
                                                  fixed = note)
NM403     config-rewrite-without-      warning    a generated configuration
          spec-cause                              changed byte-wise with no
                                                  spec-diff cause (full scan
                                                  only — generator
                                                  nondeterminism signal)
NM404     frequency-budget-tightened   warning    a grant's frequency budget
                                                  shrank (pollers may start
                                                  violating it)
NM405     orphaned-element-redrive     warning    an element removed in B
                                                  still carries an A-side
                                                  configuration
========  ============================  ========  =============================

The passes registered here carry the rule metadata (SARIF rules table,
severity defaults); their ``run`` hooks are inert because NM4xx findings
are derived from an impact set, not from a single-spec
:class:`~repro.analysis.context.AnalysisContext` — use
:func:`relational_report`, or :func:`check_revisions` for the whole
question (baseline, impact, report, waiver) that the ``diff`` op and the
rollout gate (:mod:`repro.operations`) ask of a revision pair.

Waivers reuse the baseline machinery verbatim (same fingerprint
identity, same suppression semantics) under a distinct ``tool`` name so
an analysis baseline cannot silently waive an access widening.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.baseline import Baseline
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.registry import AnalysisPass, PassRegistry
from repro.consistency.impact import ImpactAnalyzer, ImpactSet
from repro.deadline import Deadline

#: Severity of an NM402 finding by flip direction.
FLIP_SEVERITY = {
    "broke": Severity.ERROR,
    "changed": Severity.WARNING,
    "fixed": Severity.NOTE,
}


def _inert(analysis_pass: AnalysisPass, context) -> Sequence[Diagnostic]:
    """NM4xx passes need two revisions; single-spec runs yield nothing."""
    return ()


def register_relational_passes(registry: PassRegistry) -> None:
    registry.register(
        AnalysisPass(
            "NM401",
            "access-widened-grant",
            Severity.ERROR,
            "relational",
            "a revised grant widens access beyond every previous grant "
            "of its grantor",
            _inert,
        )
    )
    registry.register(
        AnalysisPass(
            "NM402",
            "verdict-flipped-reference",
            Severity.ERROR,
            "relational",
            "a reference's consistency verdict differs between the two "
            "revisions",
            _inert,
        )
    )
    registry.register(
        AnalysisPass(
            "NM403",
            "config-rewrite-without-spec-cause",
            Severity.WARNING,
            "relational",
            "a generated configuration changed byte-wise with no "
            "corresponding specification change",
            _inert,
        )
    )
    registry.register(
        AnalysisPass(
            "NM404",
            "frequency-budget-tightened",
            Severity.WARNING,
            "relational",
            "a grant's permitted frequency budget shrank between the "
            "two revisions",
            _inert,
        )
    )
    registry.register(
        AnalysisPass(
            "NM405",
            "orphaned-element-redrive",
            Severity.WARNING,
            "relational",
            "an element removed from the specification still carries a "
            "previously shipped configuration",
            _inert,
        )
    )


def relational_registry() -> PassRegistry:
    """A fresh registry holding exactly the NM4xx passes."""
    registry = PassRegistry()
    register_relational_passes(registry)
    return registry


class Waiver(Baseline):
    """Explicitly approved relational findings (same file format as a
    baseline, distinct ``tool`` so the two cannot be cross-wired)."""

    TOOL = "nmslc-diff"

    @classmethod
    def from_gating(cls, report: AnalysisReport) -> "Waiver":
        """A waiver covering exactly the report's gating findings."""
        return cls(d.fingerprint() for d in report.gating())


def _grant_summary(change) -> str:
    grant = change.new or change.old
    return (
        f"to {grant.grantee_domain!r} of {', '.join(grant.variables)} "
        f"({grant.access.value}, {grant.frequency.describe()})"
    )


def _flip_message(flip) -> str:
    if flip.kind == "broke":
        lead = flip.new_problems[0]
        message = (
            f"verdict flipped consistent -> inconsistent "
            f"({len(flip.new_problems)} problem(s)); first: "
            f"[{lead.kind.value}] {lead.message}"
        )
    elif flip.kind == "fixed":
        lead = flip.old_problems[0]
        message = (
            f"verdict flipped inconsistent -> consistent (was: "
            f"[{lead.kind.value}] {lead.message})"
        )
    else:
        message = (
            f"inconsistency causes changed "
            f"({len(flip.old_problems)} -> {len(flip.new_problems)} "
            f"problem(s))"
        )
    return message


def relational_report(
    impact: ImpactSet,
    registry: Optional[PassRegistry] = None,
) -> AnalysisReport:
    """Render an impact set as NM4xx diagnostics.

    Deterministic like :meth:`PassRegistry.run`: findings de-duplicated
    on (fingerprint, location) and sorted by source position, so two
    diffs of the same revision pair are byte-identical.
    """
    registry = registry or relational_registry()
    nm401 = registry.pass_for("NM401")
    nm402 = registry.pass_for("NM402")
    nm403 = registry.pass_for("NM403")
    nm404 = registry.pass_for("NM404")
    nm405 = registry.pass_for("NM405")

    findings: List[Diagnostic] = []
    for change in impact.permission_changes:
        if change.kind == "widened":
            findings.append(
                nm401.diagnostic(
                    change.subject(),
                    f"grant {_grant_summary(change)} widens access: "
                    f"{'; '.join(change.reasons)}",
                    location=change.new.location,
                    suggestion=(
                        "waive it explicitly (nmslc diff --update-waiver) "
                        "or tighten the grant"
                    ),
                )
            )
        elif change.kind == "tightened" and "frequency" in change.dimensions:
            location = (
                change.new.location if change.new is not None
                else change.old.location
            )
            findings.append(
                nm404.diagnostic(
                    change.subject(),
                    f"frequency budget tightened for grant "
                    f"{_grant_summary(change)}: "
                    f"{'; '.join(change.reasons)}",
                    location=location,
                )
            )
    for flip in impact.verdict_flips:
        findings.append(
            nm402.diagnostic(
                f"reference {flip.reference.client} -> "
                f"{flip.reference.server}",
                _flip_message(flip),
                location=flip.reference.location,
                severity=FLIP_SEVERITY[flip.kind],
            )
        )
    for change in impact.config_changes:
        if not change.spec_caused:
            findings.append(
                nm403.diagnostic(
                    f"element {change.element}",
                    f"{change.tag} configuration rewritten "
                    f"({(change.old_digest or 'absent')[:12]} -> "
                    f"{(change.new_digest or 'absent')[:12]}) with no "
                    f"specification change naming this element",
                )
            )
    for element in impact.orphaned:
        findings.append(
            nm405.diagnostic(
                f"element {element}",
                "removed from the revised specification but still "
                "carries a shipped configuration; schedule a "
                "decommission redrive",
            )
        )

    deduped: List[Diagnostic] = []
    seen: set = set()
    for diagnostic in findings:
        key = (diagnostic.fingerprint(), diagnostic.location)
        if key in seen:
            continue
        seen.add(key)
        deduped.append(diagnostic)
    deduped.sort(key=Diagnostic.sort_key)
    return AnalysisReport(deduped)


def check_revisions(
    tree, old, new, *, tags: Sequence[str], waiver: Optional[str] = None,
    config_scope: str = "impacted", deadline: Optional[Deadline] = None,
) -> Tuple[ImpactSet, AnalysisReport]:
    """The relational verdict on evolving specification *old* to *new*.

    Full-checks *old* as the baseline, analyzes *new* against it
    (fingerprinting the configurations of *tags* over *config_scope*),
    renders the NM4xx report and applies the *waiver* file when it
    exists.  Returns the impact set and the (waived) report.
    """
    analyzer = ImpactAnalyzer(tree, tags=tags, config_scope=config_scope)
    analyzer.baseline(old)
    Deadline.poll(deadline, "relational.baseline")
    impact = analyzer.analyze(new)
    report = relational_report(impact)
    if waiver and Path(waiver).exists():
        report = Waiver.load(waiver).apply(report)
    return impact, report
