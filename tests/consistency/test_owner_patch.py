"""The owner-scoped fact patch against a cold generation.

``ConsistencyChecker.recheck`` patches the cached fact set in place when
a delta is *owner-local* (changed system and domain declarations,
containment and the process table untouched) and regenerates otherwise.
Both must be indistinguishable from checking the new revision from
scratch, so for random deltas over the 50-spec differential corpus and
over Hypothesis-drawn internets that also have what the corpus lacks
(instance grants, proxies, literal process and domain targets, ``*``
targets, an umbrella domain, an element in two domains) this asserts:

* the patched :class:`FactSet` equals a cold-generated one field by
  field — lists in order, every lazy index, whether it was built before
  the patch (and updated) or after it (from the patched lists);
* ``recheck`` equals a fresh ``check`` on verdicts, causes, warnings and
  the bytes of ``render()`` and ``to_json()`` — and, on the corpus, the
  scan engine and the CLP(R) path;
* every delta that is not owner-local takes the regenerate path, and
  agrees too;
* a patch of a fork (``ConsistencyChecker.fork``) leaves every list and
  lazy index of the checker it was forked from as it was.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.oracles import ORACLES, failing_clients
from repro.consistency.evolution import diff_specifications
from repro.consistency.facts import IncrementalFactGenerator
from repro.nmsl.specs import ProcessInvocation, SystemSpec
from repro.workloads.generator import SUPPORTED_GROUPS, SyntheticInternet

from tests.corpus import CORPUS_SIZE, corpus

from .deltas import (
    LOCAL_DELTAS,
    NON_LOCAL_DELTAS,
    TREE,
    change_agents,
    change_supports,
    force_indexes,
    report_of,
    retarget,
    rich_internet,
    several,
    toggle_exports,
    with_entries,
)


# ----------------------------------------------------------------------
# What "the same" means.
# ----------------------------------------------------------------------
def assert_same_facts(patched, specification):
    cold = IncrementalFactGenerator(TREE).generate(specification)
    assert patched.specification is specification
    for name in (
        "instances",
        "permissions",
        "references",
        "instance_supports",
        "system_supports",
        "warnings",
    ):
        assert getattr(patched, name) == getattr(cold, name), name
    assert (
        patched.expansion["declarations"] == cold.expansion["declarations"]
    )
    forced, expected = force_indexes(patched), force_indexes(cold)
    for name in expected:
        assert forced[name] == expected[name], name


def check_local_delta(before, after, warm):
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    if warm:  # the indexes exist, so the patch has to update them
        force_indexes(checker.facts)
    result = checker.recheck(after)
    fresh = ConsistencyChecker(after, TREE).check()
    changed = len(diff_specifications(before, after))
    if not changed:  # the draw replaced a value by itself
        assert report_of(result) == report_of(fresh)
        return result, fresh
    assert result.stats["patched"], "an owner-local delta must be patched"
    assert result.stats["facts_expanded"] == changed
    assert (
        result.stats["rechecked"] + result.stats["reused"]
        == result.stats["references"]
    )
    assert report_of(result) == report_of(fresh)
    assert_same_facts(checker.checked_facts, after)
    # And the state it leaves is one a plain check() trusts.
    assert report_of(checker.check()) == report_of(fresh)
    return result, fresh


# ----------------------------------------------------------------------
# The 50-spec corpus: every delta kind, all three engines.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "index", range(CORPUS_SIZE), ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)]
)
def test_corpus_patch_equals_cold_generation(index):
    before = SyntheticInternet(corpus()[index]).specification()
    rng = random.Random(index)
    for delta in (*LOCAL_DELTAS, several):
        after = delta(rng, before)
        result, _fresh = check_local_delta(before, after, warm=index % 2 == 0)
        scan = ORACLES["scan"](after, TREE)
        assert report_of(result) == report_of(scan)
        before = after
    # CLP(R) grounds literal system targets only (the scope note of
    # test_differential), and is slow: for every fifth spec, one more
    # chain that stays inside that, compared at its end.
    if index % 5:
        return
    before = SyntheticInternet(corpus()[index]).specification()
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    for delta in (toggle_exports, change_supports, change_agents):
        after = retarget(rng, delta(rng, before), only_systems=True)
        result = checker.recheck(after)
        assert result.stats["patched"] == bool(
            len(diff_specifications(before, after))
        )
        before = after
    clpr = ORACLES["clpr"](before, TREE)
    assert result.consistent == clpr.consistent
    assert failing_clients(result) == failing_clients(clpr)


@pytest.mark.parametrize("index", range(0, CORPUS_SIZE, 5))
@pytest.mark.parametrize("delta", NON_LOCAL_DELTAS, ids=lambda d: d.__name__)
def test_corpus_non_local_delta_regenerates(index, delta):
    before = SyntheticInternet(corpus()[index]).specification()
    after = delta(random.Random(index), before)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    result = checker.recheck(after)
    assert not result.stats["patched"]
    assert result.stats["facts_expanded"] == result.stats["facts_declarations"]
    assert report_of(result) == report_of(ConsistencyChecker(after, TREE).check())
    assert_same_facts(checker.checked_facts, after)


# ----------------------------------------------------------------------
# Hypothesis-built internets: chains of deltas on one warm checker.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_domains=st.integers(2, 4),
    n_systems=st.integers(1, 3),
    steps=st.lists(
        st.sampled_from((*LOCAL_DELTAS, several)), min_size=1, max_size=4
    ),
    warm=st.booleans(),
)
def test_patch_equals_cold_generation(seed, n_domains, n_systems, steps, warm):
    rng = random.Random(seed)
    before = rich_internet(rng, n_domains, n_systems)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    for delta in steps:
        after = delta(rng, before)
        if not len(diff_specifications(before, after)):
            continue  # the draw replaced a value by itself
        if warm:
            force_indexes(checker.checked_facts)
        result = checker.recheck(after)
        assert result.stats["patched"]
        fresh = ConsistencyChecker(after, TREE).check()
        assert report_of(result) == report_of(fresh)
        assert_same_facts(checker.checked_facts, after)
        before = after


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    steps=st.lists(
        st.sampled_from((*LOCAL_DELTAS, several)), min_size=1, max_size=3
    ),
)
def test_a_forked_patch_leaves_the_origin_as_it_was(seed, steps):
    """Every lazy index built, then each delta patched into a fork of
    the checker: the fork's facts are the new revision's, the origin's —
    lists and every index — still the old one's, and a patch of the
    origin afterwards answers like a fresh check."""
    rng = random.Random(seed)
    before = rich_internet(rng, 3, 2)
    origin = ConsistencyChecker(before, TREE)
    report = report_of(origin.check())
    force_indexes(origin.checked_facts)
    fork = origin
    for delta in steps:
        after = delta(rng, before)
        if not len(diff_specifications(before, after)):
            continue  # the draw replaced a value by itself
        fork = fork.fork()
        force_indexes(fork.checked_facts)
        result = fork.recheck(after)
        assert result.stats["patched"]
        assert report_of(result) == report_of(
            ConsistencyChecker(after, TREE).check()
        )
        assert_same_facts(fork.checked_facts, after)
        before = after
    assert_same_facts(origin.checked_facts, origin.specification)
    assert report_of(origin.check()) == report
    # Its own patch starts from its own state too.
    after = several(rng, origin.specification)
    result = origin.recheck(after)
    assert report_of(result) == report_of(ConsistencyChecker(after, TREE).check())
    assert_same_facts(origin.checked_facts, after)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    delta=st.sampled_from(NON_LOCAL_DELTAS),
    then=st.sampled_from(LOCAL_DELTAS),
)
def test_non_local_delta_regenerates_then_patches(seed, delta, then):
    rng = random.Random(seed)
    before = rich_internet(rng, 3, 2)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    after = delta(rng, before)
    result = checker.recheck(after)
    assert not result.stats["patched"]
    assert report_of(result) == report_of(ConsistencyChecker(after, TREE).check())
    assert_same_facts(checker.checked_facts, after)
    # The regenerated fact set is as patchable as a cold one.
    last = then(rng, after)
    if len(diff_specifications(after, last)):
        result = checker.recheck(last)
        assert result.stats["patched"]
        assert report_of(result) == report_of(
            ConsistencyChecker(last, TREE).check()
        )
        assert_same_facts(checker.checked_facts, last)


@pytest.mark.parametrize("housed", [False, True], ids=["homeless", "twin"])
def test_patch_declines_what_it_cannot_locate(housed):
    """Two owner-local-looking deltas the patch declines: an element no
    domain lists (no domain to taint through), and a system that shares
    its name with a domain (the two count instance ordinals together,
    so neither expands on its own)."""
    base = rich_internet(random.Random(7), 2, 2)
    home = base.domains[SyntheticInternet.domain_name(1)]
    name = home.name if housed else "stray.net"
    element = SystemSpec(
        name=name,
        supports=SUPPORTED_GROUPS,
        processes=(ProcessInvocation("stdAgent"),),
    )
    before = with_entries(base, systems={name: element})
    if housed:
        before = with_entries(
            before,
            domains={
                home.name: dataclasses.replace(
                    home,
                    systems=home.systems + (name,),
                    processes=home.processes + (ProcessInvocation("stdAgent"),),
                )
            },
        )
    after = with_entries(
        before,
        systems={
            name: dataclasses.replace(element, supports=("mgmt.mib.system",))
        },
    )
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    result = checker.recheck(after)
    assert not result.stats["patched"]
    assert report_of(result) == report_of(ConsistencyChecker(after, TREE).check())
    assert_same_facts(checker.checked_facts, after)
