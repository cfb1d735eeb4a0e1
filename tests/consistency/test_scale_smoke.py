"""Nightly scale smoke: a 1,000-domain internet checks inside budget.

Deselected by default (``addopts = -m 'not slow'``); the nightly CI job
runs ``pytest -m slow``.  The budgets are deliberately loose — an order
of magnitude over the measured figures (full check ~0.6s, recheck a few
ms, peak RSS ~80 MB on the reference host) — so the test catches
regressions back to superlinear behaviour, not scheduler noise.
"""

import dataclasses
import os
import resource
import subprocess
import sys
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
#: Peak RSS bound for the check, MB, in a process that runs only it.
#: Without interned fact tuples and the generator's shared per-domain
#: structures this workload blows past a gigabyte.
PEAK_RSS_BUDGET_MB = 512


def _drop_exports(spec, index):
    name = sorted(spec.domains)[index]
    domains = Table(spec.domains)
    domains[name] = dataclasses.replace(domains[name], exports=())
    return dataclasses.replace(spec, domains=domains)


@pytest.mark.slow
def test_thousand_domain_internet_checks_inside_budget():
    """The check runs in a fresh interpreter, which reports its own peak
    RSS: ``ru_maxrss`` is a whole process's high-water mark, and in this
    one an earlier ``slow`` test (the 10k row of ``test_clpr_path``) has
    already set it far above the budget."""
    child = subprocess.run(
        [sys.executable, "-c",
         f"import {__name__} as smoke; print(smoke.check_thousand_domains())"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert child.returncode == 0, child.stderr
    peak_rss_mb = float(child.stdout.split()[-1])
    assert peak_rss_mb < PEAK_RSS_BUDGET_MB


def check_thousand_domains() -> float:
    """The 1k check and recheck, inside their time budgets; returns this
    process's peak RSS in MB: ``VmHWM``, the high-water mark of its own
    memory map, since a child's ``ru_maxrss`` starts at its parent's
    resident size (the map it was forked with) on Linux."""
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

    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
