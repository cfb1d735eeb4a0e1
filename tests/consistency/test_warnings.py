"""A result's warnings: records worded only when read, the same bytes.

A clipped instantiation is kept as a :class:`ClippedView` record, and a
result holds its warnings as one :class:`Warnings` sequence.  ``render()``
and ``to_json()`` word them a run at a time and write the JSON array
themselves; they must give the bytes the strings did, which the
reference functions below build as the report used to: the old f-string
per record, ``"\\n".join`` of the lines, and ``json.dumps`` of the payload
with the warnings as a list.  Held on ``examples/``, the corpus and
Hypothesis results whose names are full of quotes, backslashes, control
characters and non-ASCII.  The sequence must read as the tuple of its
texts; ``len``, truth and equality between two results word nothing;
and a result kept after its checker is dropped holds a few dozen bytes
per clipped warning, not the sentence.
"""

import gc
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.causes import ClippedView
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.report import (
    ConsistencyResult,
    Inconsistency,
    InconsistencyKind,
    Warnings,
)
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters
from tests.corpus import corpus

_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))
_ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# The reference: the report as it was built from strings.
# ----------------------------------------------------------------------
def wording(item) -> str:
    if isinstance(item, str):
        return item
    return (
        f"process {item.process!r} on "
        f"{item.owner!r}: supported view clipped to what "
        f"the element supports ({item.paths})"
    )


def reference_texts(result):
    return [wording(item) for item in result.warnings._items]


def reference_render(result) -> str:
    warnings = reference_texts(result)
    if result.consistent and not warnings:
        return "specification is consistent"
    lines = []
    if result.consistent:
        lines.append("specification is consistent (with warnings)")
    else:
        lines.append(
            f"specification is INCONSISTENT "
            f"({len(result.inconsistencies)} problem(s))"
        )
    for item in result.inconsistencies:
        lines.append(item.render())
    for warning in warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def reference_json(result) -> str:
    payload = {
        "consistent": result.consistent,
        "inconsistencies": [
            {
                "kind": item.kind.value,
                "message": item.message,
                "reference": (
                    None
                    if item.reference is None
                    else item.reference.describe()
                ),
                "origin": (
                    None
                    if item.reference is None
                    else item.reference.origin
                ),
                "causes": list(item.causes),
            }
            for item in result.inconsistencies
        ],
        "warnings": reference_texts(result),
        "stats": {
            key: value
            for key, value in result.stats.items()
            if key not in result.VOLATILE_STATS
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def assert_same_bytes(result):
    assert result.render() == reference_render(result)
    assert result.to_json() == reference_json(result)
    assert list(result.warnings) == reference_texts(result)


# ----------------------------------------------------------------------
# Checked specifications.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "path", sorted((_ROOT / "examples").glob("*.nmsl")), ids=lambda p: p.stem
)
def test_examples_render_as_before(path):
    compiled = _COMPILER.compile(path.read_text(encoding="utf-8"))
    for check_capacity in (False, True):
        checker = ConsistencyChecker(compiled.specification, _COMPILER.tree)
        result = checker.check(check_capacity=check_capacity)
        assert_same_bytes(result)


def test_corpus_renders_as_before():
    clipped = 0
    for parameters in corpus():
        specification = SyntheticInternet(parameters).specification()
        checker = ConsistencyChecker(specification, _COMPILER.tree)
        result = checker.check(check_capacity=True)
        assert_same_bytes(result)
        clipped += sum(
            item.__class__ is ClippedView for item in result.warnings._items
        )
    assert clipped  # the corpus reaches the records


# ----------------------------------------------------------------------
# Hypothesis results with hostile names.
# ----------------------------------------------------------------------
NAMES = st.text(
    alphabet=st.sampled_from("\"\\'\n\t\x00\x1f\x7f\u2028é€😀 ab:.[]")
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
)


@st.composite
def warning_items(draw):
    """Plain strings and records; the records draw their paths from a
    few shared lists (runs, as the fit memo makes them) or fresh ones."""
    shared = draw(
        st.lists(st.lists(NAMES, max_size=3), min_size=1, max_size=3)
    )
    record = st.builds(
        ClippedView,
        NAMES,
        NAMES,
        st.sampled_from(shared) | st.lists(NAMES, max_size=3),
    )
    return draw(st.lists(NAMES | record | record, max_size=12))


@st.composite
def results(draw):
    problems = draw(
        st.lists(
            st.builds(
                Inconsistency,
                kind=st.sampled_from(InconsistencyKind),
                message=NAMES,
                causes=st.lists(NAMES, max_size=2).map(tuple),
            ),
            max_size=2,
        )
    )
    return ConsistencyResult(
        consistent=not problems and draw(st.booleans()),
        inconsistencies=problems,
        warnings=Warnings(draw(warning_items())),
        stats=draw(
            st.dictionaries(
                st.sampled_from(("instances", "seconds", "engine", "é")),
                st.integers() | NAMES,
                max_size=3,
            )
        ),
    )


@settings(max_examples=150, deadline=None)
@given(result=results())
def test_hostile_names_render_as_before(result):
    assert_same_bytes(result)


@settings(max_examples=150, deadline=None)
@given(items=warning_items(), data=st.data())
def test_the_sequence_reads_as_the_tuple_of_its_texts(items, data):
    warnings = Warnings(items)
    texts = tuple(wording(item) for item in items)
    assert tuple(warnings) == texts
    assert warnings == texts and texts == warnings
    assert not warnings != texts
    assert len(warnings) == len(texts) and bool(warnings) == bool(texts)
    assert hash(warnings) == hash(texts)
    start = data.draw(st.integers(-14, 14) | st.none())
    stop = data.draw(st.integers(-14, 14) | st.none())
    step = data.draw(st.sampled_from((None, 1, 2, -1, -3)))
    assert warnings[start:stop:step] == texts[start:stop:step]
    if texts:
        index = data.draw(st.integers(-len(texts), len(texts) - 1))
        assert warnings[index] == texts[index]
        assert texts[index] in warnings
    # Equal records under other objects, and their texts as strings.
    copied = Warnings(
        item if isinstance(item, str)
        else ClippedView(item.process, item.owner, list(item.paths))
        for item in items
    )
    assert copied == warnings
    assert Warnings(texts) == warnings and warnings == Warnings(texts)
    assert (warnings == texts[:-1]) == (texts == texts[:-1])
    assert warnings != list(texts)


def test_a_changed_field_is_unequal():
    paths = ["mgmt.mib.ip"]
    record = ClippedView("agent", "gw", paths)
    assert Warnings([record]) == Warnings([ClippedView("agent", "gw", paths)])
    for other in (
        ClippedView("agent", "gw2", paths),
        ClippedView("agent2", "gw", paths),
        ClippedView("agent", "gw", ["mgmt.mib.tcp"]),
    ):
        assert Warnings([record]) != Warnings([other])
        assert Warnings([record]) != (str(other),)


def test_length_truth_and_equality_word_nothing(monkeypatch):
    specification = SyntheticInternet(
        next(p for p in corpus() if p.egp_pollers)
    ).specification()
    first = ConsistencyChecker(specification, _COMPILER.tree).check()
    second = ConsistencyChecker(specification, _COMPILER.tree).check()
    assert any(
        item.__class__ is ClippedView for item in first.warnings._items
    )

    def refuse(*_args, **_kwargs):
        raise AssertionError("a record was worded")

    monkeypatch.setattr(ClippedView, "pieces", refuse)
    assert len(first.warnings) and first.warnings
    assert first.warnings is not second.warnings
    assert first.warnings == second.warnings
    second.stats = first.stats  # timings differ
    assert first == second


# ----------------------------------------------------------------------
# What a kept result costs.
# ----------------------------------------------------------------------
def test_a_kept_result_holds_few_bytes_per_clipped_warning():
    """tracemalloc counts the bytes a check leaves behind once its
    checker is dropped: a record, its slot in the sequence and a share
    of the rest — the sentence took ~265 bytes a warning."""
    specification = PaperScaleInternet(
        PaperScaleParameters(n_domains=200, seed=7)
    ).specification()
    ConsistencyChecker(specification, _COMPILER.tree).check()  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        checker = ConsistencyChecker(specification, _COMPILER.tree)
        result = checker.check()
        del checker
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    clipped = sum(
        "supported view clipped" in warning for warning in result.warnings
    )
    assert clipped >= 1_000
    assert retained / clipped <= 80, (retained, clipped)
