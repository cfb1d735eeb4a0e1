"""``full_check_10k`` — the paper row: typed model to rendered verdict.

Each repetition is a fresh process that builds the 10,000-domain /
100,000-system model directly (no text, so the front end does nothing),
makes a new ``ConsistencyChecker``, runs ``check()`` and renders the
report both ways.  Fact generation and the reduction do all the work:
index, memo and reduction changes show here, lexer and parser changes
do not.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import List, Sequence, Set

from .common import PACKAGE_DIR, Context, Outcome, python, run_child
from .inputs import Sizes, model_internet, sha256_text
from .layers import put_check_metrics, traced_check, traced_report, verdict_of
from .stats import median

NOMINAL_REPS = 3


def child_main(argv: Sequence[str]) -> int:
    """One cold full check in this (fresh) process; prints one JSON line."""
    from repro.consistency.checker import ConsistencyChecker
    from repro.nmsl.compiler import CompilerOptions, NmslCompiler

    parser = argparse.ArgumentParser(prog="benchmarks.ledger full-check-child")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--domains", type=int, required=True)
    parser.add_argument("--hubs", type=int, required=True)
    args = parser.parse_args(argv)
    sizes = Sizes(model_domains=args.domains, model_hubs=args.hubs)

    start = time.perf_counter()
    tree = NmslCompiler(CompilerOptions(register_codegen=False)).tree
    specification = model_internet(sizes, args.seed).specification()
    built = time.perf_counter()
    result = ConsistencyChecker(specification, tree).check()
    checked = time.perf_counter()
    rendered = result.render()
    as_json = result.to_json()
    done = time.perf_counter()
    print(
        json.dumps(
            {
                "build_s": built - start,
                "check_s": checked - built,
                "render_s": done - checked,
                "inconsistencies": len(result.inconsistencies),
                # render() carries no engine statistics, so it is the same
                # text however the check was reached.
                "report_sha256": sha256_text(rendered),
            }
        )
    )
    return 0


def run_child_check(ctx: Context) -> dict:
    """Spawn one child; its own report plus wall, exit status and RSS."""
    stdout_path = ctx.workdir / "child.json"
    with open(stdout_path, "wb") as stdout:
        status, wall, peak = run_child(
            [
                python(), str(PACKAGE_DIR), "full-check-child",
                "--seed", str(ctx.seed),
                "--domains", str(ctx.sizes.model_domains),
                "--hubs", str(ctx.sizes.model_hubs),
            ],
            stdout=stdout,
            stderr=None,
        )
    report = {"status": status, "wall_s": wall, "peak_rss_mb": peak}
    if status == 0:
        report.update(json.loads(stdout_path.read_text(encoding="utf-8")))
    return report


def verify_child(outcome: Outcome, report: dict, expected: int) -> None:
    outcome.expect(
        report["status"] == 0 and report.get("inconsistencies") == expected,
        f"full check child: exit {report['status']}, "
        f"{report.get('inconsistencies')} inconsistencies (expected {expected})",
    )


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    internet = model_internet(ctx.sizes, ctx.seed)
    expected = internet.expected_inconsistent_references()
    outcome.counts["expected_inconsistencies"] = expected
    if ctx.trace:
        _traced(ctx, outcome, internet, expected)
        return outcome

    reps = ctx.reps(NOMINAL_REPS, minimum=2)
    reports: List[dict] = []
    loop_start = time.perf_counter()
    for _ in range(reps):
        report = run_child_check(ctx)
        verify_child(outcome, report, expected)
        reports.append(report)
    loop_wall = time.perf_counter() - loop_start
    good = [report for report in reports if report["status"] == 0]
    if not good:
        raise RuntimeError("full_check: every child failed")
    shas: Set[str] = {report["report_sha256"] for report in good}
    outcome.expect(len(shas) == 1, "full check: same model, different report")
    outcome.hashes["report"] = sorted(shas)[0]
    ops = [report["check_s"] + report["render_s"] for report in good]
    # Everything in the child that is not the measured operation:
    # interpreter start, imports, building the model.
    setups = [
        report["wall_s"] - op for report, op in zip(good, ops)
    ]
    outcome.put("setup_s", median(setups), len(good))
    outcome.put("op_p50_ms", median(ops) * 1e3, len(good))
    outcome.put("ops_per_s", reps / loop_wall, reps)
    outcome.put(
        "peak_rss_mb", median([r["peak_rss_mb"] for r in good]), len(good)
    )
    return outcome


def _traced(ctx: Context, outcome: Outcome, internet, expected: int) -> None:
    from repro.consistency.checker import ConsistencyChecker
    from repro.nmsl.compiler import CompilerOptions, NmslCompiler

    rec = ctx.recorder
    # The untraced reference: one real child.
    with rec.span("full_check_10k.child"):
        reference = run_child_check(ctx)
    verify_child(outcome, reference, expected)

    tree = NmslCompiler(CompilerOptions(register_codegen=False)).tree
    with rec.span("workloads.paper.specification"):
        specification = internet.specification()
    with rec.span("full_check_10k.pipeline") as pipeline:
        checker, result, times = traced_check(rec, specification, tree)
        rendered, as_json, render_s = traced_report(rec, result)
    outcome.expect(
        len(result.inconsistencies) == expected,
        f"in-process check: {len(result.inconsistencies)} != {expected}",
    )
    put_check_metrics(outcome, checker, result, times)

    with rec.span("full_check_10k.probes"):
        with rec.span("consistency.checker", probe="warm") as warm_span:
            warm = checker.check()
        outcome.expect(
            len(warm.inconsistencies) == expected, "warm check changed the count"
        )
        serial_verdict = verdict_of(result)
        del checker, result, warm
        with rec.span("consistency.checker", probe="jobs2") as jobs2_span:
            sharded = ConsistencyChecker(specification, tree).check(jobs=2)
        outcome.expect(
            verdict_of(sharded) == serial_verdict,
            "check(jobs=2) report differs from the serial report",
        )

    report_bytes = len(rendered.encode("utf-8")) + len(as_json.encode("utf-8"))
    outcome.put("consistency.checker.check_warm_s", warm_span.duration)
    outcome.put("consistency.checker.check_jobs2_s", jobs2_span.duration)
    outcome.put("consistency.report.render_s", render_s)
    outcome.put("consistency.report.report_bytes", report_bytes)
    outcome.counts["consistency.report.report_bytes"] = report_bytes
    outcome.hashes["report"] = sha256_text(rendered)
    if reference["status"] == 0:
        untraced = reference["check_s"] + reference["render_s"]
        outcome.put("ledger.trace_overhead_ratio", pipeline.duration / untraced)
    outcome.put("ledger.span_coverage", rec.coverage(pipeline))

