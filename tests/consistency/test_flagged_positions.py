"""The checker's flagged positions: which verdicts a result is read from.

Beside its verdict list the checker keeps the set of positions whose
verdict is not empty, and assembles every result's problems from those
positions in order.  A patched recheck carries the set through each
reference splice (a domain edit that adds or removes a process
invocation changes the splice's length, so the flags past it shift); a
regenerating one rebuilds it.  Whatever the path, the result must be a
fresh check's, byte for byte, and the set must describe the list beside
it.  The warnings of a result that adds none to the instantiation ones
are handed on, not copied.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.evolution import diff_specifications
from repro.consistency.report import ConsistencyResult, Warnings
from repro.deadline import Deadline
from repro.errors import DeadlineExceeded

from .deltas import (
    LOCAL_DELTAS,
    TREE,
    add_invocation,
    add_system,
    change_extras,
    change_process,
    remove_invocation,
    rich_internet,
    several,
    toggle_exports,
)

RESIZING = (add_invocation, remove_invocation)
#: The regenerating deltas that leave every domain with its systems, so
#: any number of steps can follow them (moving a system or removing a
#: domain can leave no domain for the next delta to edit).
REGENERATING = (change_process, add_system, change_extras)


def _flags_describe_verdicts(checker):
    verdicts = checker._verdict_list
    assert checker._flagged == {
        position for position, verdict in enumerate(verdicts) if verdict
    }


def _same_as_fresh(result, specification):
    fresh = ConsistencyChecker(specification, TREE).check()
    assert result.inconsistencies == fresh.inconsistencies
    assert result.render() == fresh.render()
    assert result.warnings == fresh.warnings
    return fresh


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_domains=st.integers(2, 4),
    n_systems=st.integers(1, 3),
    steps=st.lists(
        st.sampled_from((*LOCAL_DELTAS, several, *REGENERATING)),
        min_size=1,
        max_size=5,
    ),
    resize=st.sampled_from(RESIZING),
    at=st.integers(0, 5),
)
def test_recheck_sequences_equal_fresh_checks(
    seed, n_domains, n_systems, steps, resize, at
):
    steps.insert(min(at, len(steps)), resize)  # always one resizing splice
    rng = random.Random(seed)
    before = rich_internet(rng, n_domains, n_systems)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    _flags_describe_verdicts(checker)
    for delta in steps:
        after = delta(rng, before)
        result = checker.recheck(after)
        _same_as_fresh(result, after)
        _flags_describe_verdicts(checker)
        before = after


@pytest.mark.parametrize("resize", RESIZING, ids=lambda d: d.__name__)
def test_resizing_splice_is_patched(resize):
    """The Hypothesis sequences above go through a length-changing
    splice on the patch path, not around it."""
    rng = random.Random(3)
    before = rich_internet(rng, 4, 2)
    after = resize(rng, before)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    old_references = len(checker.facts.references)
    result = checker.recheck(after)
    assert result.stats["patched"]
    assert len(checker.facts.references) != old_references
    _same_as_fresh(result, after)
    _flags_describe_verdicts(checker)


def test_check_after_abandoned_recheck():
    rng = random.Random(11)
    before = rich_internet(rng, 4, 2)
    after = add_invocation(rng, before)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    with pytest.raises(DeadlineExceeded):
        checker.recheck(after, deadline=Deadline(at_s=0, clock=lambda: 1))
    assert checker._verdict_list is None
    result = checker.check()
    _same_as_fresh(result, after)
    _flags_describe_verdicts(checker)


def test_warm_check_after_patched_recheck():
    rng = random.Random(5)
    before = rich_internet(rng, 4, 2)
    checker = ConsistencyChecker(before, TREE)
    checker.check()
    for delta in (remove_invocation, add_invocation, toggle_exports):
        after = delta(rng, before)
        rechecked = checker.recheck(after)
        assert rechecked.stats["patched"]
        warm = checker.check()
        fresh = _same_as_fresh(warm, after)
        assert warm.render() == rechecked.render() == fresh.render()
        before = after


def test_exports_edit_hands_on_warnings():
    rng = random.Random(7)
    before = rich_internet(rng, 4, 3)
    checker = ConsistencyChecker(before, TREE)
    first = checker.check()
    assert first.warnings and isinstance(first.warnings, Warnings)
    after = toggle_exports(rng, before)
    assert len(diff_specifications(before, after)) == 1
    second = checker.recheck(after)
    assert second.stats["patched"]
    assert second.warnings is first.warnings
    # A capacity check adds warnings of its own: one new sequence.
    third = checker.check(check_capacity=True)
    assert isinstance(third.warnings, Warnings)
    assert third.warnings[: len(first.warnings)] == first.warnings


def test_warnings_are_one_type_whatever_is_passed():
    listed = ConsistencyResult(consistent=True, warnings=["w"])
    assert isinstance(listed.warnings, Warnings)
    assert listed.warnings == ("w",)
    held = Warnings(("w",))
    assert ConsistencyResult(consistent=True, warnings=held).warnings is held
    assert dataclasses.replace(listed, stats={}).warnings == ("w",)
