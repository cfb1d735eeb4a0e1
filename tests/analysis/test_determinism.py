"""Determinism: two analyzer runs over a 50-spec corpus are identical.

Mirrors the differential suite's corpus draw (same seed, same knobs) so
the analyzer is exercised over the same synthetic internets that gate
the consistency engines.
"""

import random

from repro.analysis import analyze_specification, render_text
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet

CORPUS_SIZE = 50
CORPUS_SEED = 1989

_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))


def _draw_parameters(rng: random.Random) -> InternetParameters:
    n_domains = rng.randint(2, 4)
    systems = rng.randint(1, 3)
    applications = rng.randint(1, 2)
    poller_slots = n_domains * applications
    return InternetParameters(
        n_domains=n_domains,
        systems_per_domain=systems,
        applications_per_domain=applications,
        silent_domains=tuple(
            sorted(
                rng.sample(
                    range(n_domains), k=rng.randint(0, min(2, n_domains - 1))
                )
            )
        ),
        fast_pollers=tuple(
            sorted(rng.sample(range(poller_slots), k=rng.randint(0, 2)))
        ),
        egp_pollers=tuple(
            sorted(rng.sample(range(poller_slots), k=rng.randint(0, 1)))
        ),
        seed=rng.randint(0, 2**31),
    )


def _corpus():
    rng = random.Random(CORPUS_SEED)
    return [_draw_parameters(rng) for _ in range(CORPUS_SIZE)]


def test_two_runs_identical_over_corpus():
    corpus = [
        SyntheticInternet(parameters).specification()
        for parameters in _corpus()
    ]
    first = [
        render_text(analyze_specification(spec, _COMPILER.tree))
        for spec in corpus
    ]
    second = [
        render_text(analyze_specification(spec, _COMPILER.tree))
        for spec in corpus
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
    for parameters in _corpus():
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
