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

``analyze``, ``diff``, ``rollout`` and ``heal`` run ``nmsld``'s op
bodies from :mod:`repro.operations` on the revisions :func:`_compile`
reads.  This module keeps argument parsing, rendering the full result
(text, JSON, SARIF, campaign reports), the effects only a command line
has (baseline and waiver files, ``--report-file``, journals, the chaos
injector, the breaker registry) and the exit codes.  ``top``,
``profile``, ``verify-runtime`` and the default command have no op.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro import obs, operations
from repro.collector import bulk_load
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
        "unindexed reference scan or the faithful CLP(R) path.  --jobs, "
        "--capacity and --diff-against are the checker's own",
    )


def _add_format_argument(parser, *formats: str) -> None:
    """``--format``: text on stdout, or one of *formats*."""
    parser.add_argument(
        "--format", choices=("text", *formats), default="text",
        help="output format (default: text)",
    )


def _add_extensions_argument(parser, to: str = "") -> None:
    """``--extensions``: extension-language files to prepend (*to* what)."""
    parser.add_argument(
        "--extensions", nargs="*", default=(), metavar="FILE",
        help="extension-language files to prepend" + to,
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
    _add_extensions_argument(parser)
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
    _add_format_argument(parser, "json", "sarif")
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
        type=operations.parts,
        metavar="CODES",
        help="comma-separated diagnostic codes to run (default: all)",
    )
    _add_extensions_argument(parser)
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
    _add_format_argument(parser, "json", "sarif")
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
    _add_extensions_argument(parser, " to both revisions")
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
    _add_format_argument(parser, "json")
    _add_obs_arguments(parser)
    return parser


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmslc profile",
        description="Profile a compile + consistency check (+ optional "
        "codegen): per-phase time breakdown from the tracer, per-keyword "
        "detail from the metrics registry",
    )
    parser.add_argument("specification", help="NMSL specification file")
    _add_engine_argument(parser)
    parser.add_argument(
        "--output",
        metavar="TAG",
        help="also profile generating output of this type",
    )
    _add_extensions_argument(parser)
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
        help="rows in the per-keyword table (default: 10)",
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

    try:
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
    except (ConnectionError, ValueError) as exc:
        print(f"nmslc: top: {exc}", file=sys.stderr)
        return 2


def _read_source(path) -> str:
    """The text of a specification or extension file; bytes that are not
    UTF-8 are the user's error (exit 2), not a traceback."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ReproError(
            f"{path}: not UTF-8 text (invalid byte at offset {exc.start})"
        ) from None


def _compiler(filename, extensions=(), lax=False) -> NmslCompiler:
    """The compiler for spec file *filename*: the extension files named
    in *extensions* prepended, strict unless *lax*."""
    return NmslCompiler(
        CompilerOptions(
            filename=str(filename),
            strict=not lax,
            extensions=tuple(
                parse_extension(_read_source(name)) for name in extensions
            ),
            extension_files=tuple(extensions),
        )
    )


def _compile(
    path, extensions=(), lax=False, compiler=None,
    setup=contextlib.nullcontext(),
) -> operations.Revision:
    """Read spec file *path* and compile it; every spec file ``nmslc``
    compiles comes through here, and a refused compile raises (exit 2).
    ``--diff-against`` passes the newer revision's *compiler* to share
    its MIB tree; ``profile`` traces the read and build as *setup*."""
    with setup:
        text = _read_source(path)
        compiler = compiler or _compiler(path, extensions, lax)
    result = compiler.compile(text, strict=False if lax else None)
    return operations.Revision(compiler, result)


def _declared(op: str, args: argparse.Namespace, **changes) -> dict:
    """*args* as ``nmsld`` resolves *op*'s params: every parameter the
    op declares, at its default where ``nmslc`` has no option for it."""
    return {**operations.defaults(op), **vars(args), **changes}


def _run(args: argparse.Namespace) -> int:
    if args.list_tags:
        _read_source(args.specification)  # refused like any other command
        compiler = _compiler(args.specification, args.extensions)
        for tag in sorted(set(compiler.registry.tags())):
            print(tag)
        return 0
    revision = _compile(args.specification, args.extensions, args.lax)
    compiler, result = revision.compiler, revision.result
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

    status = _diff_against(args, compiler, result) if args.diff_against else 0

    facts = None  # the checker's, when one ran: codegen reads the same
    if args.check:
        if args.engine != "indexed":
            outcome = ORACLES[args.engine](result.specification, compiler.tree)
        else:
            checker = revision.checker
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
        else:  # each unit as it is rendered: the bytes of bundle.text()
            empty = True
            for unit in compiler.units(args.output, result, facts=facts):
                if unit.text:
                    sys.stdout.write(unit.text + "\n")
                    empty = False
            if empty:
                sys.stdout.write("\n")
    return status


def _save(suppressions, path, needs: str, noun: str) -> int:
    """``--write-baseline``/``--update-waiver``: write *suppressions* to
    *path* and exit 0; without a *path*, the usage error (exit 2)."""
    if not path:
        print(f"nmslc: error: {needs} FILE", file=sys.stderr)
        return 2
    suppressions.save(path)
    print(f"wrote {len(suppressions)} {noun} to {path}", file=sys.stderr)
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    """The ``nmslc analyze`` subcommand: the static-analysis CI gate."""
    from repro.analysis import Baseline, default_registry, render

    revisions = (
        _compile(path, args.extensions, args.lax)
        for path in args.specifications
    )
    merged, _passes_run = operations.analyze(
        revisions, _declared("analyze", args)
    )

    if args.write_baseline or args.update_baseline:
        return _save(
            Baseline.from_report(merged), args.baseline,
            "--write-baseline needs --baseline", "suppression(s)",
        )

    if args.baseline and Path(args.baseline).exists():
        merged = Baseline.load(args.baseline).apply(merged)

    sys.stdout.write(
        render(merged, args.format, default_registry().passes())
    )
    if args.format == "text":
        sys.stdout.write("\n")
    return 1 if merged.gating() else 0


def _run_diff(args: argparse.Namespace) -> int:
    """The ``nmslc diff`` subcommand: relational differential verify."""
    from repro.analysis import Waiver, relational_registry, render, render_json

    old, new = (
        _compile(path, args.extensions) for path in (args.old, args.new)
    )
    # --update-waiver records the findings as they are, unwaived.
    waiver = None if args.update_waiver else args.waiver
    impact, report = operations.diff(
        old, new, _declared("diff", args, waiver=waiver),
        config_scope="full" if args.full_config_scan else "impacted",
    )

    if args.update_waiver:
        return _save(
            Waiver.from_gating(report), args.waiver,
            "--update-waiver needs --waiver", "waiver(s)",
        )

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


#: Per-element chaos flags in the order they apply: N's default and the
#: ``FaultSpec`` field ``ELEMENT[:N]`` sets.
_PER_ELEMENT = (
    ("chaos_crash", 3, "crash_after"),
    ("chaos_wedge", 0, "stall_after"),
    ("chaos_flap", 6, "flap_after"),
    ("chaos_corrupt_store", 6, "corrupt_store_after"),
)


def _build_injector(args: argparse.Namespace):
    """The seeded fault injector the chaos flags of ``rollout`` and
    ``heal`` ask for, or None."""
    import dataclasses

    from repro.netsim.faults import FaultInjector, FaultSpec

    rates = {
        f"{kind}_rate": getattr(args, f"chaos_{kind}", 0.0)
        for kind in ("loss", "stall", "corrupt", "duplicate")
    }
    default = FaultSpec(**rates)
    per_element = {}
    for dest, count, field in _PER_ELEMENT:
        for entry in getattr(args, dest, []):
            element, _, after = entry.partition(":")
            try:
                changes = {field: int(after) if after else count}
            except ValueError:
                raise ReproError(
                    f"malformed chaos target {entry!r} (want ELEMENT[:N])"
                ) from None
            if field == "flap_after":
                changes["flap_restart_after"] = 1
            # A wedged element stalls every response and does nothing else.
            spec = FaultSpec() if field == "stall_after" else (
                per_element.get(element, default)
            )
            per_element[element] = dataclasses.replace(spec, **changes)
    if per_element or any(rates.values()):
        return FaultInjector(
            seed=args.seed, default=default, per_element=per_element
        )
    return None


def _run_rollout(args: argparse.Namespace) -> int:
    """The ``nmslc rollout`` subcommand: fault-tolerant delivery."""
    from repro.analysis import render_text
    from repro.rollout import RolloutJournal

    revision = _compile(args.specification)
    declared = _declared("rollout", args)
    gate, gate_report = operations.rollout_gate(revision, declared, _compile)
    if gate is not None:
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

    injector = _build_injector(args)
    journal = resume_from = None
    if args.resume:
        if not args.journal:
            raise ReproError("--resume needs --journal FILE")
        resume_from = RolloutJournal.load(args.journal)
        resume_from.fsync = args.fsync
    elif args.journal:
        # A fresh campaign must not append onto a stale journal.
        Path(args.journal).unlink(missing_ok=True)
        journal = RolloutJournal(path=args.journal, fsync=args.fsync)
    try:
        report = operations.rollout(
            revision, declared, injector=injector, journal=journal,
            crash_coordinator_after=args.chaos_crash_coordinator,
            resume_from=resume_from, gate=gate,
        )
    finally:
        for opened in (journal, resume_from):
            if opened is not None:
                opened.close()
    _emit_report(args, report)
    return 0 if report.complete else 1


def _run_heal(args: argparse.Namespace) -> int:
    """The ``nmslc heal`` subcommand: the drift-reconciliation loop."""
    from repro.heal import HealthRegistry
    from repro.rollout import RolloutJournal

    revision = _compile(args.specification)
    registry = HealthRegistry(
        sorted(revision.runtime.rollout_targets(args.tag)),
        failure_threshold=args.failure_threshold,
        cooldown_s=args.cooldown,
        quarantine_after=args.quarantine_after,
    )
    injector = _build_injector(args)
    journal = RolloutJournal.load(args.resume) if args.resume else None
    try:
        heal = operations.heal(
            revision, _declared("heal", args), resume_from=journal,
            injector=injector, registry=registry,
        )
    finally:
        if journal is not None:
            journal.close()
    if journal is not None:
        # A finished journal replays to the report its resume returned.
        resumed = journal.replay()
        print(
            f"nmslc: resumed campaign from {args.resume}: "
            f"{len(resumed.committed())}/{len(resumed.elements)} committed",
            file=sys.stderr,
        )
    _emit_report(args, heal)
    return 0 if heal.converged else 1


def _run_verify_runtime(args: argparse.Namespace) -> int:
    """The ``nmslc verify-runtime`` subcommand: adherence checking."""
    import dataclasses
    import json

    from repro.netsim.monitor import RuntimeVerifier

    runtime = _compile(args.specification).runtime
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
    verifier = RuntimeVerifier(runtime.facts)
    report = verifier.verify(runtime.log, tolerance=args.tolerance)
    traps = verifier.trap_summary(runtime.traps)
    discrepancies = verifier.cross_check_enforcement(runtime.log, report)
    if args.format == "json":
        payload = dict(
            dataclasses.asdict(report),
            traps={str(key): value for key, value in traps.items()},
            enforcement_discrepancies=list(discrepancies),
        )
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


def _run_profile(args: argparse.Namespace) -> int:
    """The ``nmslc profile`` subcommand: where does the time go?

    Runs compile → check (→ generate) under one top-level span and
    prints a per-phase breakdown (from the tracer) and the
    keyword-dispatch counts (from metrics).
    """
    session = obs.current()
    outcome = facts = None
    with session.span("profile", file=args.specification) as top:
        revision = _compile(
            args.specification, args.extensions, args.lax,
            setup=session.span("profile.setup"),
        )
        compiler, result = revision.compiler, revision.result
        if args.engine != "indexed":
            outcome = ORACLES[args.engine](result.specification, compiler.tree)
        else:
            old = revision  # checked first; --diff-against rechecks from it
            if args.diff_against:
                old = _compile(args.diff_against, lax=True, compiler=compiler)
            checker = old.checker
            outcome = checker.check()
            if args.diff_against:
                outcome = checker.recheck(result.specification)
            facts = checker.checked_facts
        if args.output:
            compiler.generate(args.output, result, facts=facts)

    records = session.tracer.finished()
    total = top.elapsed
    # Rows are keyed by the chain of span names below "profile", so a
    # phase's sub-phases (consistency.check > consistency.facts >
    # consistency.facts.views) print under it; only the depth-1 rows add
    # up to the total.
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

    old = _compile(args.diff_against, lax=True, compiler=compiler)
    diff = diff_specifications(old.result.specification, result.specification)
    print(f"--- changes vs {args.diff_against} ---")
    print(diff.render())
    checker = old.checker
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
    for label, problems in (("introduced:", introduced), ("fixed:", fixed)):
        for (kind, message, _causes), count in sorted(problems.items()):
            suffix = f" (x{count})" if count > 1 else ""
            print(f"{label:<11} [{kind}] {message}{suffix}")
    return 1 if introduced else 0


#: name -> (parser, runner, observed even without --trace/--metrics);
#: any other first argument is the default command's specification.
_SUBCOMMANDS = {
    "top": (build_top_parser, _run_top, False),
    "analyze": (build_analyze_parser, _run_analyze, False),
    "diff": (build_diff_parser, _run_diff, False),
    "rollout": (build_rollout_parser, _run_rollout, False),
    "heal": (build_heal_parser, _run_heal, False),
    "verify-runtime": (
        build_verify_runtime_parser, _run_verify_runtime, False
    ),
    "profile": (build_profile_parser, _run_profile, True),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A compile builds a few million long-lived, acyclic token,
    # declaration, spec and fact objects; tests and embedders call
    # main() in-process, and the scope leaves the collector as it was.
    # Empty the young generations first, so whether the run pays a
    # generation-1 pass over all of that does not hinge on the imports.
    gc.collect(1)
    with bulk_load():
        return _dispatch(argv)


def _dispatch(argv: Sequence[str]) -> int:
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            build, run, observed = _SUBCOMMANDS[argv[0]]
            argv = argv[1:]
        else:
            build, run, observed = build_parser, _run, False
        args = build().parse_args(argv)
        with _obs_session(args, force=observed):
            return run(args)
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


if __name__ == "__main__":
    sys.exit(main())
