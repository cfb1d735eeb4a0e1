"""The fact base is acyclic: nothing a check builds needs the collector.

``repro.collector.bulk_load`` lets 100,000 allocations go by between
collector passes.  That is safe for peak memory only if what a check
builds and drops is freed by reference count — so this is asserted, not
assumed: with the collector *disabled*, a full check, a recheck on
either path (patched in place, regenerated), an impact analysis and a
dropped checker must leave ``gc.collect()`` nothing to find.  And an
edit must not feed the collector either: a stream of them through the
impact analyzer triggers no full (generation-2) pass.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.impact import ImpactAnalyzer
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.specs import ProcessInvocation, Table
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


def _retargeted(specification, domain_index=7):
    """One domain's first poller now polls an element of (silent) domain
    3: its instances and references change, nothing else does."""
    domain = specification.domains[SyntheticInternet.domain_name(domain_index)]
    domains = Table(specification.domains)
    domains[domain.name] = dataclasses.replace(
        domain,
        processes=(
            ProcessInvocation("poller", (SyntheticInternet.system_name(3, 0),)),
        )
        + domain.processes[1:],
    )
    return dataclasses.replace(specification, domains=domains)


def test_structural_recheck_leaves_the_collector_nothing(collector_off):
    checker = ConsistencyChecker(_internet().specification(), _COMPILER.tree)
    checker.check()
    # A retarget is owner-local: the domain's segment of the fact set is
    # re-expanded in place.
    result = checker.recheck(_retargeted(_internet().specification()))
    assert result.stats["patched"]
    assert result.stats["facts_expanded"] == 1
    assert result.stats["reused"] and result.stats["rechecked"]
    # Domain 3 is silent: the retargeted poller is one more problem.
    assert (
        len(result.inconsistencies)
        == _internet().expected_inconsistent_references() + 1
    )
    assert result.render()
    assert gc.collect() == 0


def test_regenerating_recheck_leaves_the_collector_nothing(collector_off):
    checker = ConsistencyChecker(_internet().specification(), _COMPILER.tree)
    checker.check()
    # Containment moved (an element changes domain): facts regenerate.
    edited = _internet().specification()
    loser = edited.domains[SyntheticInternet.domain_name(7)]
    gainer = edited.domains[SyntheticInternet.domain_name(8)]
    edited.domains[loser.name] = dataclasses.replace(
        loser, systems=loser.systems[:-1]
    )
    edited.domains[gainer.name] = dataclasses.replace(
        gainer, systems=gainer.systems + loser.systems[-1:]
    )
    result = checker.recheck(edited)
    assert not result.stats["patched"]
    assert result.stats["reused"] and result.stats["rechecked"]
    assert result.render()
    assert gc.collect() == 0


def test_exports_recheck_leaves_the_collector_nothing(collector_off):
    checker = ConsistencyChecker(_internet().specification(), _COMPILER.tree)
    checker.check()
    result = checker.recheck(_internet(silent_domains=(3, 100, 150)).specification())
    assert result.stats["patched"]
    assert gc.collect() == 0


def test_dropped_checker_dies_by_reference_count(collector_off):
    """``nmsld`` makes a checker per analyze/diff and drops it: it (and
    its fact set, and its permission index) must go at once, not wait
    for a generation-2 pass over a warm daemon's heap."""
    checker = ConsistencyChecker(_internet().specification(), _COMPILER.tree)
    result = checker.check()
    assert result.inconsistencies
    assert checker._index is not None
    dead = [
        weakref.ref(checker),
        weakref.ref(checker.facts),
        weakref.ref(checker._index),
    ]
    del checker, result
    assert [ref() for ref in dead] == [None] * len(dead)
    assert gc.collect() == 0


def test_dropped_analysis_context_dies_by_reference_count(collector_off):
    """One per ``analyze`` request: its permission index must not hold
    it (through a bound ``view``) in a cycle."""
    from repro.analysis.context import AnalysisContext

    context = AnalysisContext(_internet().specification(), _COMPILER.tree)
    dead = [weakref.ref(context), weakref.ref(context.index)]
    assert context.index.permissions_for(context.facts.agents()[0])
    del context
    assert [ref() for ref in dead] == [None, None]
    assert gc.collect() == 0


def test_impact_analysis_leaves_the_collector_nothing(collector_off):
    base = _internet().specification()
    analyzer = ImpactAnalyzer(_COMPILER.tree)
    analyzer.baseline(base)
    exports = analyzer.analyze(_internet(silent_domains=(3, 100, 150)).specification())
    assert exports.stats["patched"] and exports.verdict_flips
    structural = analyzer.analyze(
        _retargeted(analyzer.checker.specification)
    )
    assert structural.stats["patched"] and structural.verdict_flips
    del exports, structural
    assert gc.collect() == 0
    del analyzer
    assert gc.collect() == 0


def test_edit_stream_triggers_no_full_collection():
    """Forty one-domain exports edits through ``analyze`` on the
    1,000-domain model: whatever an edit allocates dies young, so the
    collector never finds cause for a generation-2 pass over the warm
    heap (which costs more than the edit)."""
    internet = _internet(n_domains=1000, hub_count=25, silent_domains=(3, 500))
    specification = internet.specification()
    analyzer = ImpactAnalyzer(_COMPILER.tree)
    analyzer.baseline(specification)
    on = next(d.exports for d in specification.domains.values() if d.exports)
    full_passes = []

    def watch(phase, info):
        if phase == "stop" and info["generation"] == 2:
            full_passes.append(info)

    gc.collect()
    gc.callbacks.append(watch)
    try:
        for edit in range(40):
            name = SyntheticInternet.domain_name(17 * edit + 5)
            domain = specification.domains[name]
            domains = Table(specification.domains)
            domains[name] = dataclasses.replace(
                domain, exports=() if domain.exports else on
            )
            specification = dataclasses.replace(specification, domains=domains)
            impact = analyzer.analyze(specification)
            assert impact.stats["patched"] and impact.stats["diff_entries"] == 1
    finally:
        gc.callbacks.remove(watch)
    assert full_passes == []
