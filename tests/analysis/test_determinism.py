"""Determinism: two analyzer runs over a 50-spec corpus are identical.

Draws the corpus of :mod:`tests.corpus`, so the analyzer is exercised
over the same synthetic internets that gate the consistency engines.
"""

from repro.analysis import analyze_specification, render_text
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet
from tests.corpus import corpus

_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))


def test_two_runs_identical_over_corpus():
    specs = [
        SyntheticInternet(parameters).specification()
        for parameters in corpus()
    ]
    first = [
        render_text(analyze_specification(spec, _COMPILER.tree))
        for spec in specs
    ]
    second = [
        render_text(analyze_specification(spec, _COMPILER.tree))
        for spec in specs
    ]
    assert first == second


def test_report_is_sorted_and_deduplicated():
    spec = SyntheticInternet(
        InternetParameters(
            n_domains=3,
            systems_per_domain=2,
            applications_per_domain=2,
            silent_domains=(0,),
            fast_pollers=(1,),
        )
    ).specification()
    report = analyze_specification(spec, _COMPILER.tree)
    keys = [d.sort_key() for d in report.diagnostics]
    assert keys == sorted(keys)
    fingerprint_spans = [
        (d.fingerprint(), d.location) for d in report.diagnostics
    ]
    assert len(fingerprint_spans) == len(set(fingerprint_spans))


def test_checker_backed_context_reports_the_same_over_corpus():
    """``nmsld`` hands ``analyze`` its session's warm checker; the passes
    must read the same facts there as in a fact set of their own —
    before the checker has checked anything and after."""
    from repro.analysis import AnalysisContext, default_registry
    from repro.consistency.checker import ConsistencyChecker

    registry = default_registry()
    for parameters in corpus():
        spec = SyntheticInternet(parameters).specification()
        bare = render_text(analyze_specification(spec, _COMPILER.tree))
        checker = ConsistencyChecker(spec, _COMPILER.tree)
        for _round in ("cold checker", "checked"):
            context = AnalysisContext(
                specification=spec, tree=_COMPILER.tree, checker=checker
            )
            assert render_text(registry.run(context)) == bare
            assert context.facts is checker.checked_facts
            checker.check()
