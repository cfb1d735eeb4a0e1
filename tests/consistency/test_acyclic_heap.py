"""The fact base is acyclic: nothing a check builds needs the collector.

``repro.collector.bulk_load`` lets 100,000 allocations go by between
collector passes.  That is safe for peak memory only if what a check
builds and drops is freed by reference count — so this is asserted, not
assumed: with the collector *disabled*, a full check, a structural
recheck and a dropped checker must leave ``gc.collect()`` nothing to
find.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.specs import ProcessInvocation
from repro.workloads.generator import SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters

_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))


def _internet(**overrides) -> PaperScaleInternet:
    parameters = dict(
        n_domains=200, hub_count=8, silent_domains=(3, 100),
        fast_pollers=(5,), egp_pollers=(11,), seed=1989,
    )
    parameters.update(overrides)
    return PaperScaleInternet(PaperScaleParameters(**parameters))


@pytest.fixture
def collector_off():
    """A clean heap, then no collector: whatever is unreachable when the
    test asks was made unreachable, and left cyclic, by the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_full_check_leaves_the_collector_nothing(collector_off):
    specification = _internet().specification()
    checker = ConsistencyChecker(specification, _COMPILER.tree)
    result = checker.check()
    assert len(result.inconsistencies) == _internet().expected_inconsistent_references()
    # render(), not to_json(): the standard library's indenting JSON
    # encoder is built from closures that refer to each other (a few
    # dozen objects per call, whatever the size of the report).
    assert result.render()
    assert gc.collect() == 0


def test_structural_recheck_leaves_the_collector_nothing(collector_off):
    checker = ConsistencyChecker(_internet().specification(), _COMPILER.tree)
    checker.check()
    # A retarget: one domain's poller now polls an element of another
    # domain, so that domain's instances change and facts regenerate.
    edited = _internet().specification()
    domain = edited.domains[SyntheticInternet.domain_name(7)]
    edited.domains[domain.name] = dataclasses.replace(
        domain,
        processes=(
            ProcessInvocation("poller", (SyntheticInternet.system_name(3, 0),)),
        )
        + domain.processes[1:],
    )
    result = checker.recheck(edited)
    assert not result.stats["patched"]
    assert result.stats["reused"] and result.stats["rechecked"]
    # Domain 3 is silent: the retargeted poller is one more problem.
    assert (
        len(result.inconsistencies)
        == _internet().expected_inconsistent_references() + 1
    )
    assert result.render()
    assert gc.collect() == 0


def test_exports_recheck_leaves_the_collector_nothing(collector_off):
    checker = ConsistencyChecker(_internet().specification(), _COMPILER.tree)
    checker.check()
    result = checker.recheck(_internet(silent_domains=(3, 100, 150)).specification())
    assert result.stats["patched"]
    assert gc.collect() == 0


@pytest.mark.parametrize("engine", ["indexed", "scan"])
def test_dropped_checker_dies_by_reference_count(collector_off, engine):
    """``nmsld`` makes a checker per analyze/diff and drops it: it (and
    its fact set, and its permission index) must go at once, not wait
    for a generation-2 pass over a warm daemon's heap."""
    checker = ConsistencyChecker(
        _internet().specification(), _COMPILER.tree, engine=engine
    )
    result = checker.check()
    assert result.inconsistencies
    dead = [weakref.ref(checker), weakref.ref(checker.facts)]
    if engine == "indexed":
        assert checker._index is not None
        dead.append(weakref.ref(checker._index))
    del checker, result
    assert [ref() for ref in dead] == [None] * len(dead)
    assert gc.collect() == 0
