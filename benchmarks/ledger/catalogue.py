"""The metric and workload catalogue: the one place names are declared.

``BENCHMARK.json`` at the repo root is this catalogue in the driver's
shape (``test_ledger.py`` holds the two equal); ``README.md`` is it in
prose.  Every run prints exactly these names: the untraced run every
end-to-end metric, the traced run every per-layer metric, with ``0``
for a layer the workload does not exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: What ``--seconds`` is when the driver runs us; repetition counts
#: below are sized so the measured part of a run takes about this long
#: on the 2-core host the benchmark was defined on.
RUN_SECONDS = 15

COMMAND = ("python3", "benchmarks/ledger")
PATHS = ("benchmarks/ledger",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: What one ``op_p50_ms`` sample times on this workload.
    headline: str
    #: What ``ops_per_s`` counts on this workload.
    throughput: str
    #: Client connections the load generator opens at once.
    connections: int = 1


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "cold_text_1k",
        "operator's first request: 1,000-domain NMSL text to verdict and "
        "configs in a fresh nmslc; lexer/parser/pass 2 bound, so front-end "
        "work shows here and nowhere else",
        headline="one fresh `nmslc SPEC --check --output BartsSnmpd` process",
        throughput="nmslc runs completed per second of loop wall time",
    ),
    Workload(
        "full_check_10k",
        "the paper row: 10,000-domain typed model to rendered verdict in a "
        "fresh process; the front end is bypassed, facts and reduction do "
        "everything",
        headline="cold ConsistencyChecker.check() + render() + to_json()",
        throughput="fresh-process full checks per second of loop wall time",
    ),
    Workload(
        "edit_stream_10k",
        "the same checker the other way round: a seeded stream of one-domain "
        "exports and structural edits through recheck and impact analysis on "
        "a warm 10k model; work moved between check and recheck shows",
        headline="checker.recheck() of a one-domain exports edit",
        throughput="edits (exports: recheck + impact; structural: recheck) "
        "per second of stream wall time",
    ),
    Workload(
        "daemon_mix_1k",
        "the warm management plane: a real nmsld serving 1,000-domain specs "
        "to closed-loop clients with CPU-bound work and no injected stall; "
        "protocol, queue, pool hop and spec cache dominate",
        headline="one warm `check A` round trip on one connection",
        throughput="requests per second of the 2-connection scripted mix",
        connections=2,
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    #: End-to-end only: share of the parent's median it may worsen by.
    #: The timings carry the widest bound the driver allows: the host
    #: the benchmark was defined on drifts by 10-20% for minutes at a
    #: time (README, "Repeatability"), and a bound inside that drift
    #: would reject unchanged code.
    bound: float = 0.0
    #: Per-layer only: which end-to-end metric it should move, and where.
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower",
        "input generation, model build, warm-up checks, daemon boot",
        bound=0.25,
    ),
    Metric(
        "op_p50_ms", "ms", "lower",
        "median latency of the workload's headline operation",
        bound=0.25,
    ),
    Metric(
        "ops_per_s", "1/s", "higher",
        "operations completed per second over the whole measured loop",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "peak resident memory of the process(es) doing the work",
        bound=0.05,
    ),
)


def _layer(layer: str, rows) -> Tuple[Metric, ...]:
    return tuple(
        Metric(f"{layer}.{suffix}", unit, better, meaning, moves=moves)
        for suffix, unit, better, meaning, moves in rows
    )


_FRONT = "op_p50_ms on cold_text_1k; nothing on the 10k workloads"
_FULL = "op_p50_ms on full_check_10k (and on cold_text_1k at 1k size)"

PER_LAYER: Tuple[Metric, ...] = (
    _layer("nmsl.lexer", (
        ("lex_s", "s", "lower", "tokenize(text)", _FRONT),
        ("tokens", "count", "lower", "tokens produced", _FRONT),
        ("mb_per_s", "MB/s", "higher", "source megabytes lexed per second", _FRONT),
    ))
    + _layer("nmsl.generic", (
        ("parse_self_s", "s", "lower", "NmslCompiler.parse(text) minus lex_s", _FRONT),
        ("declarations", "count", "lower", "pass-1 declarations", _FRONT),
    ))
    + _layer("nmsl.semantics", (
        ("pass2_s", "s", "lower", "SpecificationBuilder.build(declarations)", _FRONT),
        ("spec_objects", "count", "lower", "typed declarations built", _FRONT),
    ))
    + _layer("consistency.facts", (
        ("generate_s", "s", "lower", "first checker.facts access", _FULL + "; peak_rss_mb"),
        ("instances", "count", "lower", "instan facts", _FULL),
        ("references", "count", "lower", "ref facts", _FULL),
        ("permissions", "count", "lower", "perm facts", _FULL),
        ("containment_edges", "count", "lower", "contains facts", _FULL),
        ("taint_index_s", "s", "lower", "facts.domain_reference_taint()",
         _FULL + "; first exports recheck after a structural edit"),
    ))
    + _layer("consistency.index", (
        ("hits", "count", "higher", "PermissionIndex lookups that found cover", _FULL),
        ("misses", "count", "lower", "PermissionIndex lookups that found none", _FULL),
        ("hit_ratio", "ratio", "higher", "hits / lookups", _FULL),
    ))
    + _layer("consistency.checker", (
        ("reduce_s", "s", "lower", "check() minus facts and taint index", _FULL),
        ("check_warm_s", "s", "lower", "second check() on the same checker",
         "op_p50_ms on daemon_mix_1k"),
        ("check_jobs2_s", "s", "lower", "cold check(jobs=2); compare with "
         "reduce_s + generate_s to judge sharding", "none today (serial is the default)"),
        ("memo_hit_ratio", "ratio", "higher", "cache_tallies() hits / lookups", _FULL),
        ("recheck_rechecked", "count", "lower", "references re-reduced over the edit stream",
         "op_p50_ms, ops_per_s on edit_stream_10k"),
        ("recheck_reused", "count", "higher", "verdicts reused over the edit stream",
         "op_p50_ms, ops_per_s on edit_stream_10k"),
        ("recheck_exports_tail_ms", "ms", "lower",
         "exports recheck at the highest percentile with >=10 samples beyond",
         "demoted end-to-end metric (no tail exists at n<20 on the process workloads)"),
        ("recheck_structural_p50_s", "s", "lower", "recheck of a poller retarget",
         "ops_per_s on edit_stream_10k (demoted end-to-end metric)"),
        ("recheck_structural_max_s", "s", "lower", "slowest structural recheck",
         "ops_per_s on edit_stream_10k"),
        ("recheck_after_structural_ms", "ms", "lower",
         "first exports recheck after a structural edit (rebuilds the taint index)",
         "ops_per_s on edit_stream_10k"),
    ))
    + _layer("consistency.evolution", (
        ("diff_exports_ms", "ms", "lower", "diff_specifications() of an exports edit",
         "op_p50_ms on edit_stream_10k"),
        ("diff_structural_ms", "ms", "lower", "diff_specifications() of a retarget",
         "ops_per_s on edit_stream_10k"),
    ))
    + _layer("consistency.impact", (
        ("baseline_s", "s", "lower", "ImpactAnalyzer.baseline()", "setup_s on edit_stream_10k"),
        ("analyze_exports_p50_ms", "ms", "lower", "ImpactAnalyzer.analyze() of an exports edit",
         "ops_per_s on edit_stream_10k and daemon_mix_1k (demoted end-to-end metric)"),
        ("analyze_structural_s", "s", "lower", "ImpactAnalyzer.analyze() of a retarget",
         "ops_per_s on daemon_mix_1k (diff op)"),
        ("impact_over_recheck", "ratio", "lower", "analyze_exports_p50 / recheck exports p50",
         "ROADMAP 3 target: <= 2"),
    ))
    + _layer("consistency.report", (
        ("render_s", "s", "lower", "render() + to_json()", _FULL),
        ("report_bytes", "B", "lower", "bytes of render() + to_json()", _FULL),
    ))
    + _layer("analysis", (
        ("run_s", "s", "lower", "default_registry().run(analysis_context)",
         "ops_per_s on daemon_mix_1k (analyze op)"),
        ("diagnostics", "count", "lower", "diagnostics reported", "none"),
    ))
    + _layer("codegen", (
        ("BartsSnmpd_s", "s", "lower", "compiler.generate('BartsSnmpd')", _FRONT),
        ("acl-table_s", "s", "lower", "compiler.generate('acl-table')", "none today"),
        ("osi_s", "s", "lower", "compiler.generate('osi')", "none today"),
        ("config_bytes", "B", "lower", "bytes of the BartsSnmpd bundle", _FRONT),
    ))
    + _layer("cli", (
        ("overhead_s", "s", "lower",
         "nmslc subprocess wall minus the in-process layer times", _FRONT),
        ("import_s", "s", "lower", "python -c 'import repro.cli'", _FRONT),
    ))
    + _layer("service.protocol", (
        ("decode_us", "us", "lower", "parse_request(line) over the recorded frames",
         "op_p50_ms, ops_per_s on daemon_mix_1k"),
        ("encode_us", "us", "lower", "encode_message(envelope) over the recorded frames",
         "op_p50_ms, ops_per_s on daemon_mix_1k"),
        ("response_bytes", "B", "lower", "median response frame", "same"),
    ))
    + _layer("service.handlers", (
        ("spec_cache_hit_ms", "ms", "lower", "SpecCache.get() on an unchanged file",
         "op_p50_ms on daemon_mix_1k (most of it today)"),
        ("check_inproc_ms", "ms", "lower", "ServiceHandlers.execute(check) without the daemon",
         "op_p50_ms on daemon_mix_1k"),
        ("edit_check_s", "s", "lower",
         "rewrite A with one more silent domain, check A to its verdict",
         "same path as op_p50_ms on cold_text_1k (demoted end-to-end metric)"),
    ))
    + _layer("service.core", (
        ("ping_p50_ms", "ms", "lower", "ping round trip", "ops_per_s on daemon_mix_1k"),
        ("overhead_ms", "ms", "lower", "socket check p50 minus check_inproc_ms",
         "op_p50_ms on daemon_mix_1k"),
        ("check_tail_ms", "ms", "lower",
         "single-connection check at the highest percentile with >=10 samples beyond",
         "demoted end-to-end metric"),
        ("check_mix_p99_ms", "ms", "lower", "check latency inside the 2-connection mix",
         "ops_per_s on daemon_mix_1k"),
        ("diff_p50_s", "s", "lower", "diff A B round trip inside the mix",
         "ops_per_s on daemon_mix_1k (demoted end-to-end metric)"),
        ("slow_op_share", "ratio", "lower",
         "analyze/diff samples slower than 3x their median", "ops_per_s on daemon_mix_1k"),
    ))
    + _layer("service.pool", (
        ("hop_ms", "ms", "lower",
         "warm compile p50 minus spec_cache_hit_ms minus ping_p50_ms",
         "op_p50_ms, ops_per_s on daemon_mix_1k"),
        ("scaling_2w", "ratio", "higher",
         "check-only req/s on 2 connections, --workers 2 over --workers 1, real work",
         "none; the row ROADMAP 2(d) decides the pool on"),
    ))
    + _layer("ledger", (
        ("trace_overhead_ratio", "ratio", "lower",
         "headline operation traced / untraced, both in the traced run", "guards the rows above"),
        ("span_coverage", "ratio", "higher",
         "sum of layer self times / wall of the traced pass", "guards the rows above"),
        ("failed_share", "ratio", "lower", "operations failed or wrong / attempted", "none"),
    ))
)

END_TO_END_NAMES: Tuple[str, ...] = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES: Tuple[str, ...] = tuple(m.name for m in PER_LAYER)


def benchmark_json() -> dict:
    """The catalogue in the shape ``BENCHMARK.json`` must have."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
