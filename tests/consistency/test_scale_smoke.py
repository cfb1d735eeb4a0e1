"""Nightly scale smoke: a 1,000-domain internet checks inside budget.

Deselected by default (``addopts = -m 'not slow'``); the nightly CI job
runs ``pytest -m slow``.  The budgets are deliberately loose — an order
of magnitude over the measured figures (full check ~0.6s, recheck a few
ms, peak RSS ~80 MB on the reference host) — so the test catches
regressions back to superlinear behaviour, not scheduler noise.
"""

import dataclasses
import resource
import time

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.evolution import EvolutionDelta
from repro.mib.mib1 import build_mib1
from repro.nmsl.specs import Table
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters

#: Wall-clock budget for the full 1k-domain check, seconds.
FULL_CHECK_BUDGET_S = 30.0
#: Wall-clock budget for a warm one-domain incremental recheck, seconds.
RECHECK_BUDGET_S = 1.0
#: Peak RSS bound for the whole test, MB.  Without interned fact tuples
#: and the generator's shared per-domain structures this workload blows
#: past a gigabyte.
PEAK_RSS_BUDGET_MB = 512


def _drop_exports(spec, index):
    name = sorted(spec.domains)[index]
    domains = Table(spec.domains)
    domains[name] = dataclasses.replace(domains[name], exports=())
    return dataclasses.replace(spec, domains=domains)


@pytest.mark.slow
def test_thousand_domain_internet_checks_inside_budget():
    params = PaperScaleParameters(
        n_domains=1000, silent_domains=(17, 400), fast_pollers=(5,)
    )
    internet = PaperScaleInternet(params)
    tree = build_mib1()

    started = time.perf_counter()
    spec = internet.specification()
    checker = ConsistencyChecker(spec, tree)
    result = checker.check()
    full_elapsed = time.perf_counter() - started

    assert full_elapsed < FULL_CHECK_BUDGET_S
    assert len(result.inconsistencies) == (
        internet.expected_inconsistent_references()
    )
    assert result.stats["references"] == 2 * params.n_domains

    # Warm one-domain recheck: milliseconds, not another full pass.
    warm = _drop_exports(spec, 250)
    checker.recheck(EvolutionDelta.between(spec, warm))
    changed = _drop_exports(warm, 500)
    started = time.perf_counter()
    rechecked = checker.recheck(EvolutionDelta.between(warm, changed))
    recheck_elapsed = time.perf_counter() - started

    assert recheck_elapsed < RECHECK_BUDGET_S
    assert rechecked.stats["rechecked"] < result.stats["references"] // 10

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_rss_mb < PEAK_RSS_BUDGET_MB
