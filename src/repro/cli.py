"""``nmslc`` — the NMSL compiler command line.

Mirrors the paper's usage: one tool, run either for consistency checking
(descriptive aspect) or with a parameter requesting configuration output
of a specific type (prescriptive aspect).

Examples::

    nmslc internet.nmsl --check
    nmslc internet.nmsl --check --engine clpr
    nmslc internet.nmsl --output BartsSnmpd
    nmslc internet.nmsl --output BartsSnmpd --ship-dir /var/spool/nmsl
    nmslc internet.nmsl --output consistency       # dump CLP(R) facts
    nmslc internet.nmsl --extensions billing.nmslx --output DavesSnmpd

The static analyzer runs as a subcommand::

    nmslc analyze internet.nmsl
    nmslc analyze examples/*.nmsl --format sarif > analysis.sarif
    nmslc analyze examples/*.nmsl --baseline analysis-baseline.json

``analyze`` exits 1 when any non-baselined error-severity diagnostic is
found (and 2 on compile failure), so it can gate CI.

The relational diff verifies the *delta* between two revisions::

    nmslc diff old.nmsl new.nmsl
    nmslc diff old.nmsl new.nmsl --format sarif > diff.sarif
    nmslc diff old.nmsl new.nmsl --waiver approved-widenings.json

``diff`` computes the impact set — which permissions widened or
tightened (NM401/NM404), which references flipped verdict (NM402),
which generated configurations change byte-wise, which elements need
redrive (NM405) — and exits 1 on unwaived gating findings, 2 on
compile failure.  ``--update-waiver`` records the current gating
findings as explicitly approved; ``rollout --diff-base OLD.nmsl``
consumes the same impact set to stage only impacted elements and
refuse unwaived access widenings.

Fault-tolerant configuration rollout is also a subcommand::

    nmslc rollout internet.nmsl --output BartsSnmpd --jobs 8
    nmslc rollout internet.nmsl --max-attempts 8 --timeout 1.0 \
        --report json --chaos-loss 0.2 --chaos-crash gw.cs.campus.edu:4

``rollout`` drives the two-phase protocol install (stage, verify
fingerprint, apply, confirm generation) against simulated agents built
from the specification, with retry/backoff, rollback and a dead-letter
list; it exits 1 when any element lands in the dead letter.  With
``--journal FILE`` the campaign is write-ahead-logged and an interrupted
run (e.g. ``--chaos-crash-coordinator N``) can be continued with
``--resume``.

The self-healing loop and the runtime verifier are subcommands too::

    nmslc heal internet.nmsl --rounds 8 --interval 30 --report json
    nmslc heal internet.nmsl --resume campaign.journal
    nmslc verify-runtime internet.nmsl --duration 1800
    nmslc verify-runtime internet.nmsl --misbehave bart.watcher:5 --format json

``heal`` polls every element's running-config digest + generation,
re-drives drifted elements, and quarantines unreachable ones through
per-element circuit breakers; it exits 0 on convergence (zero drift on
reachable elements), 1 when the round budget runs out first, 2 on
errors.  ``verify-runtime`` replays the paper's verification aspect —
run the simulated internet, then check the observed query streams
against the specification's frequency promises — and exits 1 when the
network violates its specification.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro import obs, operations
from repro.collector import bulk_load
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.oracles import ORACLES
from repro.errors import ReproError
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.extension import parse_extension


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    """``--engine``: the production checker, or an oracle by name."""
    parser.add_argument(
        "--engine",
        choices=("indexed", *ORACLES),
        default="indexed",
        help="what answers the check: the production indexed checker "
        "(default), or an oracle from repro.consistency.oracles — the "
        "unindexed reference scan, the faithful CLP(R) path, the "
        "bottom-up datalog path.  --jobs, --capacity and --diff-against "
        "are the checker's own",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability surface, available on every command."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="FILE",
        help="write a trace of this run to FILE (.jsonl for one span per "
        "line, anything else for Chrome trace_event JSON / Perfetto)",
    )
    group.add_argument(
        "--metrics",
        metavar="FILE",
        help="write run metrics to FILE in Prometheus text exposition",
    )
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress to stderr (-v info, -vv debug)",
    )
    group.add_argument(
        "--clock",
        choices=("wall", "logical"),
        default="wall",
        help="trace timestamps: wall time (default) or a deterministic "
        "logical clock (bit-identical traces for fixed seeds)",
    )


def _add_declared(parser, op: str, *names: str) -> None:
    """Options ``nmslc`` shares with ``nmsld``: flag, type, default,
    metavar, choices and help all come from :mod:`repro.operations`, and
    each parses to its wire name."""
    for name in names:
        row = operations.OPERATIONS[op][name]
        parser.add_argument(row.flag, **row.option())


_RATE = dict(type=float, default=0.0, metavar="RATE")
_TARGETS = dict(action="append", default=[], metavar="ELEMENT[:N]")
#: Fault-injection options of ``rollout`` and ``heal``: flag -> (kind, help).
_CHAOS = {
    "--chaos-loss": (_RATE, "drop this fraction of deliveries (timeout)"),
    "--chaos-stall": (
        _RATE, "stall this fraction of responses past the deadline"
    ),
    "--chaos-corrupt": (
        _RATE, "corrupt one octet of this fraction of deliveries"
    ),
    "--chaos-duplicate": (_RATE, "deliver this fraction of requests twice"),
    "--chaos-crash": (
        _TARGETS, "crash ELEMENT's agent (permanently) after N delivered "
        "messages (default 3); repeatable",
    ),
    "--chaos-wedge": (
        _TARGETS, "stall every response from ELEMENT after N messages "
        "(default 0); repeatable",
    ),
    "--chaos-flap": (
        _TARGETS, "flap ELEMENT's agent: crash after every N delivered "
        "messages (default 6), restarting on the next contact; repeatable",
    ),
    "--chaos-corrupt-store": (
        _TARGETS, "corrupt ELEMENT's persisted config store after N "
        "delivered messages (default 6); repeatable",
    ),
}


def _add_report_arguments(parser, report: str) -> None:
    """``--report`` and ``--report-file`` of a campaign subcommand."""
    parser.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--report-file",
        metavar="FILE",
        help=f"also write the JSON {report} to FILE (CI artifact)",
    )


def _emit_report(args: argparse.Namespace, report) -> None:
    """A campaign report on stdout, and as JSON to ``--report-file``."""
    print(report.to_json() if args.report == "json" else report.render())
    if args.report_file:
        Path(args.report_file).write_text(
            report.to_json() + "\n", encoding="utf-8"
        )


def _add_chaos_arguments(parser, *flags: str):
    """The chaos-injection group, holding *flags* from :data:`_CHAOS`."""
    chaos = parser.add_argument_group("chaos injection (seeded, deterministic)")
    for flag in flags:
        kind, text = _CHAOS[flag]
        chaos.add_argument(flag, help=text, **kind)
    return chaos


@contextlib.contextmanager
def _obs_session(
    args: argparse.Namespace, force: bool = False
) -> Iterator[Optional[obs.Observability]]:
    """Install an :class:`Observability` for one CLI command.

    Exports the trace and metrics files on the way out.  Without any
    observability flags (and without *force*) the command runs on the
    null observability — the instrumented paths cost one attribute read.
    """
    obs.configure_logging(getattr(args, "verbose", 0))
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    if not (force or trace or metrics):
        yield None
        return
    clock = (
        obs.LogicalClock()
        if getattr(args, "clock", "wall") == "logical"
        else obs.WallClock()
    )
    session = obs.Observability(clock=clock)
    previous = obs.set_current(session)
    try:
        yield session
    finally:
        obs.set_current(previous)
        if trace:
            fmt = session.tracer.write(trace)
            print(f"nmslc: wrote {fmt} trace to {trace}", file=sys.stderr)
        if metrics:
            # Mirror tracer counters (span count, cap drops) into the
            # registry so the export shows when a trace was truncated.
            session.publish_tracer_stats()
            session.metrics.write(metrics)
            print(f"nmslc: wrote metrics to {metrics}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmslc",
        description="NMSL compiler: check consistency and generate "
        "network-manager configuration",
    )
    parser.add_argument("specification", help="NMSL specification file")
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the consistency checker and report inconsistencies",
    )
    _add_engine_argument(parser)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard the consistency reduction step per administrative "
        "domain across N worker processes (verdicts are byte-identical "
        "to a serial check)",
    )
    parser.add_argument(
        "--output",
        metavar="TAG",
        help="generate output of this type (consistency, BartsSnmpd, "
        "acl-table, osi, or an extension tag)",
    )
    parser.add_argument(
        "--extensions",
        nargs="*",
        default=(),
        metavar="FILE",
        help="extension-language files to prepend",
    )
    parser.add_argument(
        "--ship-dir",
        metavar="DIR",
        help="ship per-element configuration as files into DIR",
    )
    parser.add_argument(
        "--mail-dir",
        metavar="DIR",
        help="ship per-element configuration as mail messages into DIR",
    )
    _add_declared(parser, "check", "capacity")
    parser.add_argument(
        "--lax",
        action="store_true",
        help="report semantic errors without aborting compilation",
    )
    parser.add_argument(
        "--format",
        action="store_true",
        help="print the specification re-rendered in canonical layout",
    )
    parser.add_argument(
        "--list-tags",
        action="store_true",
        help="list the registered output types and exit",
    )
    parser.add_argument(
        "--diff-against",
        metavar="OLDFILE",
        help="show what changed relative to OLDFILE and which consistency "
        "problems the change introduces or fixes",
    )
    _add_obs_arguments(parser)
    return parser


def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmslc analyze",
        description="Static analysis of NMSL specifications: hygiene, "
        "permission and frequency/type passes with stable diagnostic "
        "codes (NM1xx/NM2xx/NM3xx)",
    )
    parser.add_argument(
        "specifications", nargs="+", help="NMSL specification file(s)"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of suppressed findings; findings in it are "
        "reported but never fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the --baseline file and exit 0",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="alias for --write-baseline",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated diagnostic codes to run (default: all)",
    )
    parser.add_argument(
        "--extensions",
        nargs="*",
        default=(),
        metavar="FILE",
        help="extension-language files to prepend",
    )
    parser.add_argument(
        "--lax",
        action="store_true",
        help="analyze even when the specification has semantic errors",
    )
    _add_obs_arguments(parser)
    return parser


def build_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmslc diff",
        description="Relational spec diff: verify the delta between two "
        "specification revisions — permission widenings/tightenings, "
        "verdict flips, configuration rewrites and redrives — reported "
        "as NM4xx diagnostics",
    )
    parser.add_argument("old", help="baseline (A-side) NMSL specification")
    parser.add_argument("new", help="revised (B-side) NMSL specification")
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    _add_declared(parser, "diff", "waiver")
    parser.add_argument(
        "--update-waiver",
        action="store_true",
        help="write the current gating findings to the --waiver file "
        "and exit 0",
    )
    _add_declared(parser, "diff", "output")
    parser.add_argument(
        "--full-config-scan",
        action="store_true",
        help="fingerprint every element, not just impacted ones; "
        "enables NM403 (config rewrite without spec cause) at the cost "
        "of two full generation runs",
    )
    parser.add_argument(
        "--extensions",
        nargs="*",
        default=(),
        metavar="FILE",
        help="extension-language files to prepend to both revisions",
    )
    parser.add_argument(
        "--report-file",
        metavar="FILE",
        help="also write the JSON diagnostic report to FILE (CI artifact)",
    )
    _add_obs_arguments(parser)
    return parser


def build_rollout_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmslc rollout",
        description="Fault-tolerant configuration rollout: transactional "
        "two-phase delivery with retry/backoff, rollback to "
        "last-known-good, and a dead-letter list",
    )
    parser.add_argument("specification", help="NMSL specification file")
    _add_declared(
        parser, "rollout", "tag", "max_attempts", "timeout_s", "jobs"
    )
    _add_report_arguments(parser, "RolloutReport")
    _add_declared(
        parser, "rollout",
        "seed", "chunk_size", "baseline_install", "diff_base", "waiver",
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        help="write-ahead-log every campaign event to FILE (JSONL); makes "
        "the campaign resumable after a coordinator crash",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the journal after every record (durability over speed)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the interrupted campaign recorded in --journal FILE "
        "instead of starting fresh",
    )
    chaos = _add_chaos_arguments(parser, *_CHAOS)
    chaos.add_argument(
        "--chaos-crash-coordinator", type=int, metavar="N",
        help="kill the coordinator itself after N journaled events "
        "(exit 2; combine with --journal, then --resume)",
    )
    _add_obs_arguments(parser)
    return parser


def build_heal_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmslc heal",
        description="Self-healing reconciliation loop: poll every "
        "element's running-config digest and generation, re-drive "
        "drifted elements through the rollout machinery, and quarantine "
        "persistently unreachable ones via circuit breakers",
    )
    parser.add_argument("specification", help="NMSL specification file")
    _add_declared(parser, "heal", "tag", "rounds", "interval_s")
    parser.add_argument(
        "--resume",
        metavar="JOURNAL",
        help="first finish the interrupted rollout campaign recorded in "
        "JOURNAL, then reconcile",
    )
    _add_report_arguments(parser, "HealReport")
    _add_declared(parser, "heal", "seed", "jobs", "max_attempts", "timeout_s")
    # nmsld's heal declares no chunk size; nmslc's stages in rollout's.
    _add_declared(parser, "rollout", "chunk_size")
    _add_declared(parser, "heal", "install")
    breaker = parser.add_argument_group("circuit breakers")
    breaker.add_argument(
        "--failure-threshold", type=int, default=3, metavar="N",
        help="consecutive failures that open an element's breaker "
        "(default: 3)",
    )
    breaker.add_argument(
        "--cooldown", type=float, default=60.0, metavar="SECONDS",
        help="base breaker cool-down, doubling per open (default: 60)",
    )
    breaker.add_argument(
        "--quarantine-after", type=int, default=3, metavar="N",
        help="breaker opens before an element is quarantined (default: 3)",
    )
    _add_chaos_arguments(
        parser, "--chaos-loss", "--chaos-stall", "--chaos-crash",
        "--chaos-flap", "--chaos-corrupt-store",
    )
    _add_obs_arguments(parser)
    return parser


def build_verify_runtime_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmslc verify-runtime",
        description="The paper's verification aspect: run the simulated "
        "internet under the installed configuration, then check the "
        "observed query streams against the specification's frequency "
        "promises",
    )
    parser.add_argument("specification", help="NMSL specification file")
    parser.add_argument(
        "--duration", type=float, default=1800.0, metavar="SECONDS",
        help="simulated runtime (default: 1800)",
    )
    parser.add_argument(
        "--misbehave", action="append", default=[],
        metavar="INSTANCE[:PERIOD]",
        help="make INSTANCE query every PERIOD seconds (default 1), "
        "violating its promise; repeatable",
    )
    parser.add_argument(
        "--loss", type=float, default=0.0, metavar="RATE",
        help="drop this fraction of queries in the network (default: 0)",
    )
    parser.add_argument(
        "--seed", type=int, default=operations.DEFAULT_SEED, metavar="N",
        help="seed for loss injection (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1e-6, metavar="SECONDS",
        help="slack when comparing inter-arrival times (default: 1e-6)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    _add_obs_arguments(parser)
    return parser


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmslc profile",
        description="Profile a compile + consistency check (+ optional "
        "codegen): per-phase time breakdown from the tracer, per-rule "
        "and per-keyword detail from the metrics registry",
    )
    parser.add_argument("specification", help="NMSL specification file")
    _add_engine_argument(parser)
    parser.add_argument(
        "--output",
        metavar="TAG",
        help="also profile generating output of this type",
    )
    parser.add_argument(
        "--extensions",
        nargs="*",
        default=(),
        metavar="FILE",
        help="extension-language files to prepend",
    )
    parser.add_argument(
        "--lax",
        action="store_true",
        help="profile even when the specification has semantic errors",
    )
    parser.add_argument(
        "--diff-against",
        metavar="OLDFILE",
        help="check OLDFILE first and profile the incremental recheck "
        "that brings the checker to the specification",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows in the per-rule and per-keyword tables (default: 10)",
    )
    _add_obs_arguments(parser)
    return parser


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmslc top",
        description="Live per-class SLO and queue view of a running "
        "nmsld: polls the status and slo operations and renders one "
        "table per tick",
    )
    parser.add_argument("--socket", help="nmsld unix socket path")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, help="nmsld TCP port")
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval (default: %(default)s)",
    )
    parser.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="exit after N ticks (default: run until interrupted)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit raw status+slo snapshots as JSONL instead of tables",
    )
    return parser


def _render_top(snapshot: dict) -> str:
    """One tick of ``nmslc top``: summary line + per-class SLO table."""
    from repro.service.client import render_watch_line

    slo = snapshot.get("slo", {})
    lines = [render_watch_line(snapshot)]
    classes = slo.get("classes", {})
    if classes:
        lines.append(
            f"{'class':<12} {'objective':<16} {'avail':>8} "
            f"{'burn':>8} {'p99_s':>10} {'alert':>8}"
        )
    for cls in sorted(classes):
        entry = classes[cls]
        objective = entry.get("objective", {})
        target = (
            f"{objective.get('latency_s', '-')}s@"
            f"{objective.get('availability', '-')}"
            if objective
            else "-"
        )
        windows = entry.get("windows", [])
        shortest = windows[0] if windows else {}
        burn = max(
            (window.get("burn_rate", 0.0) for window in windows),
            default=0.0,
        )
        lines.append(
            f"{cls:<12} {target:<16} "
            f"{shortest.get('availability', 1.0):>8.4f} "
            f"{burn:>8.2f} "
            f"{str(shortest.get('p99_s', '-')):>10} "
            f"{entry.get('alert') or '-':>8}"
        )
    pool = (snapshot.get("status") or {}).get("pool")
    if pool:
        lines.append(
            f"{'worker':<8} {'state':<8} {'pid':>8} {'served':>8} "
            f"{'restarts':>9} {'hb_age_s':>9} {'op':<10}"
        )
        for worker in pool.get("workers", []):
            lines.append(
                f"{worker.get('worker', '-'):<8} "
                f"{worker.get('state', '-'):<8} "
                f"{str(worker.get('pid', '-')):>8} "
                f"{worker.get('served', 0):>8} "
                f"{worker.get('restarts', 0):>9} "
                f"{str(worker.get('heartbeat_age_s', '-')):>9} "
                f"{worker.get('op', '-'):<10}"
            )
        quarantine = pool.get("quarantine", {})
        if quarantine.get("size"):
            lines.append(
                f"quarantine: {quarantine['size']} fingerprint(s): "
                + ", ".join(
                    f"{e.get('fingerprint')}({e.get('op')})"
                    for e in quarantine.get("entries", [])[:4]
                )
            )
    return "\n".join(lines)


def _run_top(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from repro.service.client import ServiceClient

    with ServiceClient(
        socket_path=args.socket, host=args.host, port=args.port
    ) as client:
        ticks = 0
        while True:
            snapshot = client.watch_snapshot()
            if args.json:
                print(
                    _json.dumps(
                        snapshot, sort_keys=True, separators=(",", ":")
                    )
                )
            else:
                print(_render_top(snapshot))
            ticks += 1
            if args.count is not None and ticks >= args.count:
                return 0
            _time.sleep(args.interval)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A compile builds a few million long-lived, acyclic token,
    # declaration, spec and fact objects; tests and embedders call
    # main() in-process, and the scope leaves the collector as it was.
    with bulk_load():
        return _dispatch(argv)


def _dispatch(argv: Sequence[str]) -> int:
    try:
        if argv and argv[0] == "top":
            args = build_top_parser().parse_args(argv[1:])
            try:
                return _run_top(args)
            except (ConnectionError, ValueError) as exc:
                print(f"nmslc: top: {exc}", file=sys.stderr)
                return 2
        if argv and argv[0] == "analyze":
            args = build_analyze_parser().parse_args(argv[1:])
            with _obs_session(args):
                return _run_analyze(args)
        if argv and argv[0] == "diff":
            args = build_diff_parser().parse_args(argv[1:])
            with _obs_session(args):
                return _run_diff(args)
        if argv and argv[0] == "rollout":
            args = build_rollout_parser().parse_args(argv[1:])
            with _obs_session(args):
                return _run_rollout(args)
        if argv and argv[0] == "heal":
            args = build_heal_parser().parse_args(argv[1:])
            with _obs_session(args):
                return _run_heal(args)
        if argv and argv[0] == "verify-runtime":
            args = build_verify_runtime_parser().parse_args(argv[1:])
            with _obs_session(args):
                return _run_verify_runtime(args)
        if argv and argv[0] == "profile":
            args = build_profile_parser().parse_args(argv[1:])
            with _obs_session(args, force=True) as session:
                return _run_profile(args, session)
        args = build_parser().parse_args(argv)
        with _obs_session(args):
            return _run(args)
    except ReproError as exc:
        print(f"nmslc: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nmslc: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Campaign journals are closed by the finally blocks on the
        # way out, so an interrupted rollout stays resumable; exit with
        # the conventional 128 + SIGINT instead of a raw traceback.
        print("nmslc: interrupted", file=sys.stderr)
        return 130


def _read_source(path) -> str:
    """The text of a specification or extension file; bytes that are not
    UTF-8 are the user's error (exit 2), not a traceback."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ReproError(
            f"{path}: not UTF-8 text (invalid byte at offset {exc.start})"
        ) from None


def _read_extensions(names) -> tuple:
    return tuple(parse_extension(_read_source(name)) for name in names)


def _run(args: argparse.Namespace) -> int:
    text = _read_source(args.specification)
    extensions = _read_extensions(args.extensions)
    compiler = NmslCompiler(
        CompilerOptions(
            filename=args.specification,
            strict=not args.lax,
            extensions=extensions,
        )
    )
    if args.list_tags:
        for tag in sorted(set(compiler.registry.tags())):
            print(tag)
        return 0
    result = compiler.compile(text)
    if args.format:
        from repro.nmsl.pprint import render_specification

        sys.stdout.write(render_specification(result.specification))
        return 0
    counts = result.specification.counts()
    print(
        f"compiled {args.specification}: "
        + ", ".join(f"{count} {kind}" for kind, count in counts.items())
    )
    for warning in result.report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if result.report.errors:
        for error in result.report.errors:
            print(f"error: {error}", file=sys.stderr)
        return 1

    status = 0
    if args.diff_against:
        status = max(status, _diff_against(args, compiler, result))

    facts = None  # the checker's, when one ran: codegen reads the same
    if args.check:
        if args.engine != "indexed":
            outcome = ORACLES[args.engine](result.specification, compiler.tree)
        else:
            checker = ConsistencyChecker(result.specification, compiler.tree)
            outcome = checker.check(
                check_capacity=args.capacity, jobs=args.jobs
            )
            facts = checker.checked_facts
        print(outcome.render())
        if not outcome.consistent:
            status = 1

    if args.output:
        if args.ship_dir or args.mail_dir:
            from repro.codegen.base import ConfigurationGenerator
            from repro.codegen.transport import (
                FileDropTransport,
                MailSpoolTransport,
            )

            generator = ConfigurationGenerator(compiler, result, facts=facts)
            if args.ship_dir:
                transport = FileDropTransport(Path(args.ship_dir))
            else:
                transport = MailSpoolTransport(Path(args.mail_dir))
            records = generator.ship(args.output, transport)
            for record in records:
                print(
                    f"shipped {record.element} via {record.method} -> "
                    f"{record.destination} ({record.octets} octets)"
                )
        else:
            bundle = compiler.generate(args.output, result, facts=facts)
            sys.stdout.write(bundle.text())
    return status


def _run_analyze(args: argparse.Namespace) -> int:
    """The ``nmslc analyze`` subcommand: the static-analysis CI gate."""
    from repro.analysis import (
        AnalysisReport,
        Baseline,
        default_registry,
        render,
    )

    codes: Optional[Sequence[str]] = None
    if args.select:
        codes = tuple(
            code.strip() for code in args.select.split(",") if code.strip()
        )
    extensions = _read_extensions(args.extensions)
    registry = default_registry()
    merged = AnalysisReport()
    for spec_path in args.specifications:
        text = _read_source(spec_path)
        compiler = NmslCompiler(
            CompilerOptions(
                filename=spec_path,
                strict=not args.lax,
                extensions=extensions,
                extension_files=tuple(args.extensions),
            )
        )
        result = compiler.compile(text)
        if result.report.errors and not args.lax:
            for error in result.report.errors:
                print(f"nmslc: error: {error}", file=sys.stderr)
            return 2
        report = registry.run(compiler.analysis_context(result), codes=codes)
        merged = merged.merged_with(report)

    if args.write_baseline or args.update_baseline:
        if not args.baseline:
            print(
                "nmslc: error: --write-baseline needs --baseline FILE",
                file=sys.stderr,
            )
            return 2
        baseline = Baseline.from_report(merged)
        baseline.save(args.baseline)
        print(
            f"wrote {len(baseline)} suppression(s) to {args.baseline}",
            file=sys.stderr,
        )
        return 0

    if args.baseline and Path(args.baseline).exists():
        merged = Baseline.load(args.baseline).apply(merged)

    sys.stdout.write(render(merged, args.format, registry.passes()))
    if args.format == "text":
        sys.stdout.write("\n")
    return 1 if merged.gating() else 0


def _compile_revision(path, extensions=(), extension_files=()):
    """(compiler, result) for one specification; None + stderr on
    errors."""
    text = _read_source(path)
    compiler = NmslCompiler(
        CompilerOptions(
            filename=str(path),
            extensions=extensions,
            extension_files=extension_files,
        )
    )
    result = compiler.compile(text)
    if result.report.errors:
        for error in result.report.errors:
            print(f"nmslc: error: {error}", file=sys.stderr)
        return None
    return compiler, result


def _run_diff(args: argparse.Namespace) -> int:
    """The ``nmslc diff`` subcommand: relational differential verify."""
    from repro.analysis import (
        Waiver,
        check_revisions,
        relational_registry,
        render,
        render_json,
    )

    extensions = _read_extensions(args.extensions)
    extension_files = tuple(args.extensions)
    old = _compile_revision(args.old, extensions, extension_files)
    if old is None:
        return 2
    new = _compile_revision(args.new, extensions, extension_files)
    if new is None:
        return 2
    old_compiler, old_result = old
    _, new_result = new
    # --update-waiver records the findings as they are, unwaived.
    impact, report = check_revisions(
        old_compiler.tree, old_result.specification, new_result.specification,
        tags=args.output, waiver=None if args.update_waiver else args.waiver,
        config_scope="full" if args.full_config_scan else "impacted",
    )

    if args.update_waiver:
        if not args.waiver:
            print(
                "nmslc: error: --update-waiver needs --waiver FILE",
                file=sys.stderr,
            )
            return 2
        waiver = Waiver.from_gating(report)
        waiver.save(args.waiver)
        print(
            f"wrote {len(waiver)} waiver(s) to {args.waiver}",
            file=sys.stderr,
        )
        return 0

    sys.stdout.write(
        render(report, args.format, relational_registry().passes())
    )
    if args.format == "text":
        sys.stdout.write("\n")
    stats = impact.stats
    print(
        f"nmslc: diff: {stats.get('diff_entries', 0)} spec delta "
        f"entr{'y' if stats.get('diff_entries', 0) == 1 else 'ies'}, "
        f"{len(impact.impacted_elements)} impacted element(s), "
        f"{len(impact.redrive_elements())} redrive(s), "
        f"{len(report.diagnostics)} finding(s)",
        file=sys.stderr,
    )
    if args.report_file:
        Path(args.report_file).write_text(
            render_json(report), encoding="utf-8"
        )
    return 1 if report.gating() else 0


def _build_rollout_gate(args: argparse.Namespace, runtime):
    """Relational gate for ``rollout --diff-base``; (gate, report)."""
    from repro.analysis import check_revisions
    from repro.rollout import RolloutGate

    base = _compile_revision(args.diff_base)
    if base is None:
        return None
    base_compiler, base_result = base
    impact, report = check_revisions(
        base_compiler.tree, base_result.specification,
        runtime.result.specification, tags=(args.tag,), waiver=args.waiver,
    )
    return RolloutGate.from_impact(impact, report), report


def _parse_chaos_targets(entries, default_count):
    targets = {}
    for entry in entries:
        element, _, count = entry.partition(":")
        try:
            targets[element] = int(count) if count else default_count
        except ValueError:
            raise ReproError(
                f"malformed chaos target {entry!r} (want ELEMENT[:N])"
            ) from None
    return targets


def _build_injector(args: argparse.Namespace):
    """Shared chaos-flag handling for ``rollout`` and ``heal``."""
    import dataclasses

    from repro.netsim.faults import FaultInjector, FaultSpec

    loss = getattr(args, "chaos_loss", 0.0)
    stall = getattr(args, "chaos_stall", 0.0)
    corrupt = getattr(args, "chaos_corrupt", 0.0)
    duplicate = getattr(args, "chaos_duplicate", 0.0)
    default_spec = FaultSpec(
        loss_rate=loss,
        stall_rate=stall,
        corrupt_rate=corrupt,
        duplicate_rate=duplicate,
    )
    per_element = {}

    def update(element, **changes):
        spec = per_element.get(element, default_spec)
        per_element[element] = dataclasses.replace(spec, **changes)

    for element, after in _parse_chaos_targets(
        getattr(args, "chaos_crash", []), default_count=3
    ).items():
        update(element, crash_after=after)
    for element, after in _parse_chaos_targets(
        getattr(args, "chaos_wedge", []), default_count=0
    ).items():
        per_element[element] = FaultSpec(stall_after=after)
    for element, after in _parse_chaos_targets(
        getattr(args, "chaos_flap", []), default_count=6
    ).items():
        update(element, flap_after=after, flap_restart_after=1)
    for element, after in _parse_chaos_targets(
        getattr(args, "chaos_corrupt_store", []), default_count=6
    ).items():
        update(element, corrupt_store_after=after)
    if per_element or any((loss, stall, corrupt, duplicate)):
        return FaultInjector(
            seed=args.seed, default=default_spec, per_element=per_element
        )
    return None


def _campaign(args: argparse.Namespace) -> dict:
    """``ManagementRuntime.rollout``/``heal`` keywords: the delivery
    options, read as ``nmsld`` reads them, and the chaos flags."""
    campaign = operations.campaign(vars(args))
    return dict(campaign, injector=_build_injector(args))


def _compile_for_runtime(args: argparse.Namespace):
    """Compile a specification and build its simulated runtime, or None."""
    from repro.netsim.processes import ManagementRuntime

    compiled = _compile_revision(args.specification)
    return None if compiled is None else ManagementRuntime(*compiled)


def _run_rollout(args: argparse.Namespace) -> int:
    """The ``nmslc rollout`` subcommand: fault-tolerant delivery."""
    from repro.rollout import RolloutJournal

    runtime = _compile_for_runtime(args)
    if runtime is None:
        return 2

    gate = None
    if args.diff_base:
        from repro.analysis import render_text

        gated = _build_rollout_gate(args, runtime)
        if gated is None:
            return 2
        gate, gate_report = gated
        if not gate.permits():
            print(render_text(gate_report))
            print(
                "nmslc: rollout refused: the delta widens access without "
                "a waiver (see nmslc diff --update-waiver)",
                file=sys.stderr,
            )
            return 1
        print(
            f"nmslc: relational gate: staging "
            f"{len(gate.impacted_elements)} impacted element(s)",
            file=sys.stderr,
        )

    if args.baseline_install:
        runtime.install_configuration(tag=args.tag)

    campaign = _campaign(args)
    journal = None
    resume_from = None
    if args.resume:
        if not args.journal:
            raise ReproError("--resume needs --journal FILE")
        resume_from = RolloutJournal.load(args.journal)
        resume_from.fsync = args.fsync
    elif args.journal:
        # A fresh campaign must not append onto a stale journal.
        journal_path = Path(args.journal)
        if journal_path.exists():
            journal_path.unlink()
        journal = RolloutJournal(path=args.journal, fsync=args.fsync)
    try:
        report = runtime.rollout(
            **campaign,
            journal=journal,
            crash_coordinator_after=args.chaos_crash_coordinator,
            resume_from=resume_from,
            gate=gate,
        )
    finally:
        if journal is not None:
            journal.close()
        if resume_from is not None:
            resume_from.close()
    _emit_report(args, report)
    return 0 if report.complete else 1


def _run_heal(args: argparse.Namespace) -> int:
    """The ``nmslc heal`` subcommand: the drift-reconciliation loop."""
    from repro.heal import HealthRegistry
    from repro.rollout import RolloutJournal

    runtime = _compile_for_runtime(args)
    if runtime is None:
        return 2
    if args.install:
        runtime.install_configuration(tag=args.tag)

    campaign = _campaign(args)
    if args.resume:
        journal = RolloutJournal.load(args.resume)
        try:
            resumed = runtime.rollout(**campaign, resume_from=journal)
        finally:
            journal.close()
        print(
            f"nmslc: resumed campaign from {args.resume}: "
            f"{len(resumed.committed())}/{len(resumed.elements)} committed",
            file=sys.stderr,
        )
    targets = runtime.rollout_targets(args.tag)
    registry = HealthRegistry(
        sorted(targets),
        failure_threshold=args.failure_threshold,
        cooldown_s=args.cooldown,
        quarantine_after=args.quarantine_after,
    )
    heal = runtime.heal(
        **campaign,
        registry=registry,
        interval_s=args.interval_s,
        rounds=args.rounds,
    )
    _emit_report(args, heal)
    return 0 if heal.converged else 1


def _run_verify_runtime(args: argparse.Namespace) -> int:
    """The ``nmslc verify-runtime`` subcommand: adherence checking."""
    import json

    from repro.netsim.monitor import RuntimeVerifier

    runtime = _compile_for_runtime(args)
    if runtime is None:
        return 2
    runtime.install_configuration()
    misbehaving = {}
    for entry in args.misbehave:
        instance, _, period = entry.partition(":")
        try:
            misbehaving[instance] = float(period) if period else 1.0
        except ValueError:
            raise ReproError(
                f"malformed --misbehave {entry!r} (want INSTANCE[:PERIOD])"
            ) from None
    runtime.start(
        duration_s=args.duration,
        misbehaving=misbehaving or None,
        loss_rate=args.loss,
        seed=args.seed,
    )
    runtime.run(args.duration)
    verifier = RuntimeVerifier(runtime.specification, runtime.facts)
    report = verifier.verify(runtime.log, tolerance=args.tolerance)
    traps = verifier.trap_summary(runtime.traps)
    discrepancies = verifier.cross_check_enforcement(runtime.log, report)
    if args.format == "json":
        payload = {
            "adheres": report.adheres,
            "observed_queries": report.observed_queries,
            "checked_pairs": report.checked_pairs,
            "rate_limited_queries": report.rate_limited_queries,
            "violating_clients": list(report.violating_clients),
            "violations": [
                {
                    "client": violation.client,
                    "server_agent": violation.server_agent,
                    "observed_interval_s": violation.observed_interval_s,
                    "promised_min_period_s": violation.promised_min_period_s,
                    "at_time": violation.at_time,
                }
                for violation in report.violations
            ],
            "traps": {str(key): value for key, value in traps.items()},
            "enforcement_discrepancies": list(discrepancies),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
        for line in discrepancies:
            print(f"enforcement: {line}")
        for agent_id, counts in sorted(traps.items()):
            rendered = ", ".join(
                f"{name}={count}" for name, count in sorted(counts.items())
            )
            print(f"traps[{agent_id}]: {rendered}")
    return 0 if report.adheres else 1


#: How many levels of spans below ``profile`` the per-phase table shows.
_PROFILE_DEPTH = 3


def _run_profile(args: argparse.Namespace, session: obs.Observability) -> int:
    """The ``nmslc profile`` subcommand: where does the time go?

    Runs compile → check (→ generate) under one top-level span and
    prints a per-phase breakdown (from the tracer), a per-rule table
    (datalog oracle), and the keyword-dispatch counts (from metrics).
    """
    text = _read_source(args.specification)
    extensions = _read_extensions(args.extensions)
    outcome = facts = None
    with session.span("profile", file=args.specification) as top:
        with session.span("profile.setup"):
            compiler = NmslCompiler(
                CompilerOptions(
                    filename=args.specification,
                    strict=not args.lax,
                    extensions=extensions,
                )
            )
        result = compiler.compile(text)
        if result.report.errors and not args.lax:
            for error in result.report.errors:
                print(f"nmslc: error: {error}", file=sys.stderr)
            return 2
        if args.engine != "indexed":
            outcome = ORACLES[args.engine](result.specification, compiler.tree)
        else:
            first = result
            if args.diff_against:
                first = compiler.compile(
                    _read_source(args.diff_against), strict=False
                )
            checker = ConsistencyChecker(first.specification, compiler.tree)
            outcome = checker.check()
            if args.diff_against:
                outcome = checker.recheck(result.specification)
            facts = checker.checked_facts
        if args.output:
            compiler.generate(args.output, result, facts=facts)

    records = session.tracer.finished()
    total = top.elapsed
    # Rows are keyed by the chain of span names below "profile", so a
    # phase's sub-phases (compile > compile.pass1 > compile.lex) print
    # under it; only the depth-1 rows add up to the total.
    by_id = {record.span_id: record for record in records}

    def chain(record):
        names = [record.name]
        while record.depth > 1:
            record = by_id.get(record.parent_id)
            if record is None:  # parent recorded in another process
                return None
            names.append(record.name)
        return tuple(reversed(names))

    phases: dict = {}
    for record in records:
        key = chain(record) if 1 <= record.depth <= _PROFILE_DEPTH else None
        if key is not None:
            seconds, spans = phases.get(key, (0.0, 0))
            phases[key] = (seconds + record.duration_s, spans + 1)

    def slowest_first(key):
        return [(-phases[key[:n]][0], key[n - 1]) for n in range(1, len(key) + 1)]

    print(f"profile: {args.specification} (engine={args.engine})")
    print(f"{'phase':<36} {'seconds':>12} {'share':>7} {'spans':>6}")
    accounted = 0.0
    for key in sorted(phases, key=slowest_first):
        seconds, spans = phases[key]
        if len(key) == 1:
            accounted += seconds
        share = 100.0 * seconds / total if total else 0.0
        label = "  " * len(key) + key[-1]
        print(f"{label:<36} {seconds:>12.6f} {share:>6.1f}% {spans:>6}")
    if total:
        untraced = max(0.0, total - accounted)
        print(
            f"  {'(untraced)':<34} {untraced:>12.6f} "
            f"{100.0 * untraced / total:>6.1f}%"
        )
    print(f"{'total':<36} {total:>12.6f}")

    rule_stats = (outcome.stats or {}).get("rule_stats") if outcome else None
    if rule_stats:
        print()
        print(f"top rules by time ({args.engine}):")
        print(f"  {'rule':<34} {'firings':>8} {'seconds':>12}")
        ranked = sorted(
            rule_stats.items(), key=lambda item: -item[1]["seconds"]
        )
        for rule, stats in ranked[: args.top]:
            print(
                f"  {rule:<34} {int(stats['firings']):>8} "
                f"{stats['seconds']:>12.6f}"
            )

    snapshot = session.metrics.snapshot()
    keywords = snapshot.get("repro_compile_declarations_total", {}).get(
        "samples", {}
    )
    if keywords:
        print()
        print("keyword dispatch (pass 2):")
        ranked = sorted(keywords.items(), key=lambda item: (-item[1], item[0]))
        for label_text, count in ranked[: args.top]:
            keyword = label_text.partition("=")[2] or label_text
            print(f"  {keyword:<26} {int(count):>8}")

    if outcome is not None and not outcome.consistent:
        print()
        print(
            f"note: specification is inconsistent "
            f"({len(outcome.inconsistencies)} problem(s)); timings above "
            "cover the full check"
        )
    return 0


def _diff_against(args, compiler, result) -> int:
    """Diff the compiled spec against an older version and delta-check."""
    from repro.consistency.evolution import EvolutionDelta, diff_specifications

    old_text = _read_source(args.diff_against)
    old_result = compiler.compile(old_text, strict=False)
    diff = diff_specifications(old_result.specification, result.specification)
    print(f"--- changes vs {args.diff_against} ---")
    print(diff.render())
    checker = ConsistencyChecker(old_result.specification, compiler.tree)
    old_outcome = checker.check()
    new_outcome = checker.recheck(
        EvolutionDelta(specification=result.specification, diff=diff)
    )
    # Count problems by (kind, message, causes) — headline messages
    # alone collide (every uncoverable reference says "no instantiated
    # server ..."), which would let a breaking change slip through as
    # "0 introduced" whenever an identical-looking problem already
    # existed elsewhere.
    def problem_counts(outcome):
        return Counter(
            (p.kind.value, p.message, p.causes)
            for p in outcome.inconsistencies
        )

    old_problems = problem_counts(old_outcome)
    new_problems = problem_counts(new_outcome)
    introduced = new_problems - old_problems
    fixed = old_problems - new_problems
    print(
        f"--- verdict: {sum(introduced.values())} problem(s) introduced, "
        f"{sum(fixed.values())} fixed "
        f"(re-checked {new_outcome.stats.get('rechecked', '?')} of "
        f"{new_outcome.stats.get('references', '?')} references) ---"
    )
    for (kind, message, _causes), count in sorted(introduced.items()):
        suffix = f" (x{count})" if count > 1 else ""
        print(f"introduced: [{kind}] {message}{suffix}")
    for (kind, message, _causes), count in sorted(fixed.items()):
        suffix = f" (x{count})" if count > 1 else ""
        print(f"fixed:      [{kind}] {message}{suffix}")
    return 1 if introduced else 0


if __name__ == "__main__":
    sys.exit(main())
