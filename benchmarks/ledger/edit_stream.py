"""``edit_stream_10k`` — one warm checker, a stream of one-domain edits.

The same checker as ``full_check_10k`` used the other way round (writes
beside reads): a change that moves work out of ``recheck`` into the full
check, or the reverse, wins on one of the two workloads and loses on the
other.  The stream is cumulative and seeded: blocks of ten *exports*
edits (toggle one leaf domain between silent and exporting) each
followed by one *structural* edit (retarget one poller at a host of
another domain).  Exports edits ride the checker's in-place patch path;
a retarget regenerates facts, about a hundred times dearer — and the
exports edit right after it pays to rebuild the taint index.

Every edit is rechecked on the warm checker; exports edits also go
through a warm ``ImpactAnalyzer`` that follows its own revision chain
without the retargets, so each of its diffs is exactly one domain.
"""

from __future__ import annotations

import time
from typing import List

from .common import Context, Outcome, self_peak_rss_mb, timed
from .inputs import (
    BLOCK_EXPORTS,
    EditOracle,
    apply_edit,
    digest_of,
    edit_stream,
    exporting_clause,
    model_internet,
)
from .layers import verdict_of
from .stats import median, tail

NOMINAL_BLOCKS = 4
TAGS = ("BartsSnmpd",)
#: Retargets fed to the impact analyzer after the traced stream.
STRUCTURAL_IMPACT_REPS = 2


def run(ctx: Context) -> Outcome:
    from repro.consistency.checker import ConsistencyChecker
    from repro.consistency.evolution import diff_specifications
    from repro.consistency.impact import ImpactAnalyzer
    from repro.nmsl.compiler import CompilerOptions, NmslCompiler

    outcome = Outcome()
    rec = ctx.recorder
    # Two at least: a traced run spends its first block as the untraced
    # reference.
    blocks = ctx.reps(NOMINAL_BLOCKS, minimum=2)

    # ---- set-up: model, warm checker, warm analyzer, edit script.
    setup_start = time.perf_counter()
    internet = model_internet(ctx.sizes, ctx.seed)
    tree = NmslCompiler(CompilerOptions(register_codegen=False)).tree
    specification = internet.specification()
    checker = ConsistencyChecker(specification, tree)
    baseline = checker.check()
    analyzer = ImpactAnalyzer(tree, tags=TAGS)
    baseline_times: List[float] = []
    with timed(rec, "consistency.impact", baseline_times, call="baseline"):
        analyzer.baseline(specification)
    oracle = EditOracle(internet)
    edits = edit_stream(internet.parameters, ctx.seed, blocks)
    exports_on = exporting_clause(specification)
    setup_s = time.perf_counter() - setup_start
    outcome.hashes["edit_stream"] = digest_of(edits)
    outcome.expect(
        edits == edit_stream(internet.parameters, ctx.seed, blocks),
        "edit stream: same seed, different edits",
    )
    outcome.expect(
        len(baseline.inconsistencies)
        == oracle.expected
        == internet.expected_inconsistent_references(),
        f"baseline: {len(baseline.inconsistencies)} != {oracle.expected}",
    )
    per_domain = internet.parameters.systems_per_domain

    # ---- the stream.
    recheck_exports: List[float] = []
    recheck_structural: List[float] = []
    recheck_after_structural: List[float] = []
    impact_exports: List[float] = []
    diff_exports: List[float] = []
    diff_structural: List[float] = []
    untraced_exports: List[float] = []
    rechecked = reused = 0
    checker_spec = analyzer_spec = specification
    after_structural = False
    result = baseline
    with rec.span("edit_stream_10k.stream") as stream_span:
        stream_start = time.perf_counter()
        for position, edit in enumerate(edits):
            previous = checker_spec
            checker_spec = apply_edit(checker_spec, edit, exports_on)
            structural = edit.kind != "exports"
            if ctx.trace:
                with timed(
                    rec, "consistency.evolution",
                    diff_structural if structural else diff_exports,
                ):
                    diff_specifications(previous, checker_spec)
            # The first block of a traced run goes unrecorded: it is the
            # reference the tracing overhead is measured against.
            reference = ctx.trace and position < BLOCK_EXPORTS
            rec.enabled = ctx.trace and not reference
            if structural:
                sink = recheck_structural
            elif after_structural:
                sink = recheck_after_structural
            elif reference:
                sink = untraced_exports
            else:
                sink = recheck_exports
            with timed(rec, "consistency.checker", sink, call="recheck", edit=edit.kind):
                result = checker.recheck(checker_spec)
            rec.enabled = ctx.trace
            rechecked += result.stats["rechecked"]
            reused += result.stats["reused"]
            expected = oracle.apply(edit)
            outcome.expect(
                len(result.inconsistencies) == expected,
                f"edit {position} ({edit.kind} dom {edit.domain}): "
                f"{len(result.inconsistencies)} != {expected}",
            )
            after_structural = structural
            if structural:
                continue
            analyzer_spec = apply_edit(analyzer_spec, edit, exports_on)
            with timed(rec, "consistency.impact", impact_exports, call="analyze"):
                impact = analyzer.analyze(analyzer_spec)
            outcome.expect(
                impact.stats["diff_entries"] == 1
                and len(impact.impacted_elements) == per_domain,
                f"edit {position}: impact of {impact.stats['diff_entries']} "
                f"entries on {len(impact.impacted_elements)} elements",
            )
        stream_wall = time.perf_counter() - stream_start
    peak_rss = self_peak_rss_mb()

    # ---- the last recheck against a from-scratch check of the final
    # revision (after the RSS reading: the second checker is the
    # oracle's memory, not the workload's).
    fresh = ConsistencyChecker(checker_spec, tree).check()
    outcome.expect(
        verdict_of(result) == verdict_of(fresh),
        "last recheck differs from a fresh check of the final revision",
    )
    outcome.counts["consistency.checker.recheck_rechecked"] = rechecked
    outcome.counts["consistency.checker.recheck_reused"] = reused
    outcome.counts["final_inconsistencies"] = len(fresh.inconsistencies)

    if not ctx.trace:
        plain = recheck_exports + untraced_exports
        outcome.put("setup_s", setup_s, 1)
        outcome.put("op_p50_ms", median(plain) * 1e3, len(plain))
        outcome.put("ops_per_s", len(edits) / stream_wall, len(edits))
        outcome.put("peak_rss_mb", peak_rss, 1)
        return outcome

    # ---- traced extras: what a retarget costs the impact analyzer.
    impact_structural: List[float] = []
    extra = edit_stream(internet.parameters, ctx.seed + 1, STRUCTURAL_IMPACT_REPS)
    for edit in (e for e in extra if e.kind == "retarget"):
        analyzer_spec = apply_edit(analyzer_spec, edit, exports_on)
        with timed(rec, "consistency.impact", impact_structural, call="analyze"):
            impact = analyzer.analyze(analyzer_spec)
        outcome.expect(
            impact.stats["diff_entries"] == 1, "retarget impact: not one entry"
        )

    put = outcome.put
    tail_p, tail_value = tail(recheck_exports)
    put("consistency.checker.recheck_rechecked", rechecked)
    put("consistency.checker.recheck_reused", reused)
    put("consistency.checker.recheck_exports_tail_ms", tail_value * 1e3, len(recheck_exports))
    outcome.counts["recheck_exports_tail_percentile"] = int(tail_p)
    put("consistency.checker.recheck_structural_p50_s", median(recheck_structural), len(recheck_structural))
    put("consistency.checker.recheck_structural_max_s", max(recheck_structural), len(recheck_structural))
    put("consistency.checker.recheck_after_structural_ms", median(recheck_after_structural) * 1e3, len(recheck_after_structural))
    put("consistency.evolution.diff_exports_ms", median(diff_exports) * 1e3, len(diff_exports))
    put("consistency.evolution.diff_structural_ms", median(diff_structural) * 1e3, len(diff_structural))
    put("consistency.impact.baseline_s", baseline_times[0], 1)
    put("consistency.impact.analyze_exports_p50_ms", median(impact_exports) * 1e3, len(impact_exports))
    put("consistency.impact.analyze_structural_s", median(impact_structural), len(impact_structural))
    put("consistency.impact.impact_over_recheck", median(impact_exports) / median(recheck_exports))
    put("ledger.trace_overhead_ratio", median(recheck_exports) / median(untraced_exports))
    put("ledger.span_coverage", rec.coverage(stream_span))
    return outcome
