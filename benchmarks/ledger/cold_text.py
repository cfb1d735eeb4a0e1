"""``cold_text_1k`` — NMSL text in, verdict and configs out, fresh nmslc.

The operator's first request.  Set-up streams the 1,000-domain internet
to a file; the measured loop runs fresh ``python -m repro.cli SPEC
--check --output BartsSnmpd`` processes with stdout to a file.  The
front end (lexer, pass 1, pass 2) does about four fifths of the work
and the reduction about a hundredth, so a lexer or parser speed-up must
show here — and on none of the 10k workloads.
"""

from __future__ import annotations

import re
import subprocess
import time
from pathlib import Path
from typing import List, Set

from .common import Context, Outcome, python, run_child
from .inputs import sha256_file, system_names, text_internet
from .layers import put_check_metrics, traced_check
from .stats import median

TAG = "BartsSnmpd"
SETUP_REPS = 5
NOMINAL_REPS = 2

_VERDICT = re.compile(r"^specification is INCONSISTENT \((\d+) problem\(s\)\)$")
_CONFIG_HEADER = "# snmpd.conf for "


def generate(ctx: Context, outcome: Outcome, path: Path, extra_silent=(), label=None):
    """Write the text; returns ``(internet, set-up seconds)``.

    Generated SETUP_REPS times: the median is the set-up time and equal
    hashes are the determinism check.
    """
    times: List[float] = []
    hashes: Set[str] = set()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        internet = text_internet(ctx.sizes, ctx.seed, extra_silent)
        internet.write_text(path)
        hashes.add(sha256_file(path))
        times.append(time.perf_counter() - start)
    outcome.expect(len(hashes) == 1, f"{path.name}: same seed, different text")
    outcome.hashes[label or path.name] = sorted(hashes)[0]
    return internet, median(times)


def run_nmslc(spec: Path, stdout_path: Path):
    with open(stdout_path, "wb") as stdout:
        return run_child(
            [python(), "-m", "repro.cli", str(spec), "--check", "--output", TAG],
            stdout=stdout,
        )


def verify_output(
    outcome: Outcome, status: int, stdout_path: Path, expected: int, names: Set[str]
) -> None:
    """Exit status 1, the expected count, a config for every system."""
    reported = None
    configured: List[str] = []
    with open(stdout_path, encoding="utf-8") as handle:
        for line in handle:
            if reported is None:
                match = _VERDICT.match(line.rstrip("\n"))
                if match:
                    reported = int(match.group(1))
            if line.startswith(_CONFIG_HEADER):
                configured.append(line[len(_CONFIG_HEADER):].split(" ", 1)[0])
    outcome.expect(
        status == 1
        and reported == expected
        and len(configured) == len(names)
        and set(configured) == names,
        f"nmslc: exit {status}, {reported} problems (expected {expected}), "
        f"{len(configured)} configs (expected {len(names)})",
    )


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    spec = ctx.workdir / "a.nmsl"
    internet, setup_s = generate(ctx, outcome, spec)
    expected = internet.expected_inconsistent_references()
    names = set(system_names(internet.parameters))
    outcome.counts["expected_inconsistencies"] = expected
    if ctx.trace:
        _traced(ctx, outcome, spec, expected, names)
        return outcome

    walls: List[float] = []
    peaks: List[float] = []
    output_hashes: Set[str] = set()
    stdout_path = ctx.workdir / "nmslc.out"
    reps = ctx.reps(NOMINAL_REPS, minimum=2)
    loop_start = time.perf_counter()
    for _ in range(reps):
        status, wall, peak = run_nmslc(spec, stdout_path)
        walls.append(wall)
        peaks.append(peak)
        verify_output(outcome, status, stdout_path, expected, names)
        output_hashes.add(sha256_file(stdout_path))
    loop_wall = time.perf_counter() - loop_start
    outcome.expect(len(output_hashes) == 1, "nmslc: same input, different output")
    outcome.hashes["nmslc.out"] = sorted(output_hashes)[0]
    outcome.put("setup_s", setup_s, SETUP_REPS)
    outcome.put("op_p50_ms", median(walls) * 1e3, reps)
    outcome.put("ops_per_s", reps / loop_wall, reps)
    outcome.put("peak_rss_mb", median(peaks), reps)
    return outcome


def _traced(ctx, outcome, spec, expected, names) -> None:
    from repro.analysis import default_registry
    from repro.nmsl.compiler import CompileResult, CompilerOptions, NmslCompiler
    from repro.nmsl.lexer import tokenize
    from repro.nmsl.semantics import SpecificationBuilder

    rec = ctx.recorder
    # The untraced reference: one real nmslc process.
    stdout_path = ctx.workdir / "nmslc.out"
    with rec.span("cli.subprocess"):
        status, cli_wall, _peak = run_nmslc(spec, stdout_path)
    verify_output(outcome, status, stdout_path, expected, names)
    imports: List[float] = []
    for _ in range(3):
        with rec.span("cli.import"):
            status, wall, _peak = run_child(
                [python(), "-c", "import repro.cli"], stdout=subprocess.DEVNULL
            )
        imports.append(wall)
        outcome.expect(status == 0, "import repro.cli failed")

    # Pass 1 lexes inside the parser, where a span from outside cannot
    # reach; lex the same text on its own first, on the same young heap
    # the parser will see.
    text = spec.read_text(encoding="utf-8")
    with rec.span("cold_text_1k.probes"):
        with rec.span("nmsl.lexer") as lex_span:
            token_count = len(tokenize(text, str(spec)))
    del text

    # The same path in process, one span per layer boundary.
    compiler = NmslCompiler(CompilerOptions(filename=str(spec)))
    with rec.span("cold_text_1k.pipeline") as pipeline:
        with rec.span("io.read"):
            text = spec.read_text(encoding="utf-8")
        with rec.span("nmsl.generic") as parse_span:
            declarations = compiler.parse(text)
        with rec.span("nmsl.semantics") as pass2_span:
            builder = SpecificationBuilder(
                compiler.tree,
                compiler.module,
                compiler.keyword_table,
                extension_decltypes=compiler.extension_decltypes,
            )
            specification = builder.build(declarations, strict=True)
        result = CompileResult(declarations, specification, builder.report)
        checker, verdict, times = traced_check(rec, specification, compiler.tree)
        with rec.span("consistency.report") as report_span:
            rendered = verdict.render()
        with rec.span("codegen") as codegen_span:
            bundle = compiler.generate(TAG, result)
            config_text = bundle.text()
    outcome.expect(
        len(verdict.inconsistencies) == expected,
        f"in-process check: {len(verdict.inconsistencies)} != {expected}",
    )
    units = [unit.name for unit in bundle.units if unit.decltype == "system"]
    outcome.expect(
        len(units) == len(names) and set(units) == names,
        f"generate({TAG}): {len(units)} system units, expected {len(names)}",
    )

    # Layers this CLI invocation does not run at all.
    with rec.span("cold_text_1k.probes"):
        with rec.span("analysis") as analysis_span:
            report = default_registry().run(compiler.analysis_context(result))
        other = {}
        for tag in ("acl-table", "osi"):
            with rec.span("codegen", tag=tag) as span:
                compiler.generate(tag, result).text()
            other[tag] = span.duration

    megabytes = len(text.encode("utf-8")) / 1e6
    put = outcome.put
    put("nmsl.lexer.lex_s", lex_span.duration)
    put("nmsl.lexer.tokens", token_count)
    put("nmsl.lexer.mb_per_s", megabytes / lex_span.duration)
    put("nmsl.generic.parse_self_s", parse_span.duration - lex_span.duration)
    put("nmsl.generic.declarations", len(declarations))
    put("nmsl.semantics.pass2_s", pass2_span.duration)
    put("nmsl.semantics.spec_objects", sum(specification.counts().values()))
    put_check_metrics(outcome, checker, verdict, times)
    put("consistency.report.render_s", report_span.duration)
    put("consistency.report.report_bytes", len(rendered.encode("utf-8")))
    put("analysis.run_s", analysis_span.duration)
    put("analysis.diagnostics", len(report.diagnostics))
    put("codegen.BartsSnmpd_s", codegen_span.duration)
    put("codegen.acl-table_s", other["acl-table"])
    put("codegen.osi_s", other["osi"])
    put("codegen.config_bytes", len(config_text.encode("utf-8")))
    put("cli.overhead_s", cli_wall - pipeline.duration)
    put("cli.import_s", median(imports), len(imports))
    put("ledger.trace_overhead_ratio", pipeline.duration / cli_wall)
    put("ledger.span_coverage", rec.coverage(pipeline))
    for name in (
        "nmsl.lexer.tokens",
        "nmsl.generic.declarations",
        "nmsl.semantics.spec_objects",
        "consistency.report.report_bytes",
        "codegen.config_bytes",
        "analysis.diagnostics",
    ):
        outcome.counts[name] = int(outcome.metrics[name])
