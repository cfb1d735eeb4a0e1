"""Spans around the consistency layers, shared by the two workloads
that run a full check in the traced pass."""

from __future__ import annotations

from typing import Dict

from repro.consistency.checker import ConsistencyChecker

from .common import Outcome
from .spans import SpanRecorder


def traced_check(recorder: SpanRecorder, specification, tree):
    """A cold ``check()`` with facts and the taint index split out.

    ``checker.facts`` and ``domain_reference_taint()`` are both cached,
    so asking for them first moves their cost out of ``check()``: what
    is left in the outer span's self time is instantiation checks plus
    the reduction.
    """
    with recorder.span("consistency.checker") as outer:
        checker = ConsistencyChecker(specification, tree)
        with recorder.span("consistency.facts") as facts_span:
            facts = checker.facts
        with recorder.span("consistency.facts.taint") as taint_span:
            facts.domain_reference_taint()
        result = checker.check()
    times = {
        "facts": facts_span.duration,
        "taint": taint_span.duration,
        "reduce": recorder.self_time(outer),
    }
    return checker, result, times


def verdict_of(result) -> tuple:
    """Everything ``to_json()`` serialises except the engine statistics:
    a recheck, a full check and a check whose facts were asked for first
    all count different things there."""
    return (
        result.consistent,
        [problem.render() for problem in result.inconsistencies],
        result.warnings,
    )


def traced_report(recorder: SpanRecorder, result):
    with recorder.span("consistency.report") as span:
        rendered = result.render()
        as_json = result.to_json()
    return rendered, as_json, span.duration


def put_check_metrics(
    outcome: Outcome, checker: ConsistencyChecker, result, times: Dict[str, float]
) -> None:
    """The fact, index and reduction rows of one traced cold check."""
    stats = result.stats
    outcome.put("consistency.facts.generate_s", times["facts"])
    outcome.put("consistency.facts.taint_index_s", times["taint"])
    outcome.put("consistency.checker.reduce_s", times["reduce"])
    for key in ("instances", "references", "permissions", "containment_edges"):
        outcome.put(f"consistency.facts.{key}", stats[key])
        outcome.counts[f"consistency.facts.{key}"] = stats[key]
    # The index has no public accessor on the checker; stats() on it is
    # public.  Spans (and counters) inside the program are a later issue.
    index = getattr(checker, "_index", None)
    index_stats = index.stats() if index is not None else {}
    hits = index_stats.get("lookup_hits", 0)
    misses = index_stats.get("lookup_misses", 0)
    outcome.put("consistency.index.hits", hits)
    outcome.put("consistency.index.misses", misses)
    outcome.put(
        "consistency.index.hit_ratio",
        hits / (hits + misses) if hits + misses else 0.0,
    )
    tallies = checker.cache_tallies()
    lookups = tallies["hits"] + tallies["misses"]
    outcome.put(
        "consistency.checker.memo_hit_ratio",
        tallies["hits"] / lookups if lookups else 0.0,
    )
