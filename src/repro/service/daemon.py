"""``nmsld`` — the always-on management-plane daemon.

Boots an :class:`~repro.service.runtime.AsyncServiceRuntime` serving the
NDJSON protocol on a unix socket (or TCP port) with the Prometheus
``/metrics`` + ``/healthz`` HTTP endpoint alongside.  SIGTERM or SIGINT
begins a graceful drain; the process exits 0 once the last in-flight
campaign has finished and its journal is closed.

Usage::

    nmsld --socket /run/nmsld.sock --http-port 9189 &
    echo '{"op":"check","params":{"spec":"internet.nmsl"}}' | nc -U /run/nmsld.sock
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.obs import Observability, configure_logging, set_current
from repro.service.core import ServiceConfig
from repro.service.runtime import AsyncServiceRuntime


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmsld",
        description=(
            "Always-on NMSL management-plane service: compile, check, "
            "analyze, diff, rollout and heal over a newline-delimited-"
            "JSON socket, with admission control, priority classes, "
            "load shedding, deadlines, campaign bulkheads and graceful "
            "drain."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"nmsld {__version__}"
    )
    parser.add_argument(
        "--socket",
        metavar="PATH",
        help="serve on a unix domain socket at PATH",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address when --socket is not given (default %(default)s)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral, reported in --ready-file)",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics and /healthz on this port (0 = ephemeral)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help=(
            "supervised worker processes for check/analyze/diff/compile "
            "and handler threads for everything else (default "
            "%(default)s; must be >= 1)"
        ),
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "on SIGTERM, seconds busy workers get to finish before "
            "SIGKILL (their requests are answered with structured "
            "refusals; default %(default)s)"
        ),
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="bounded admission queue capacity (default %(default)s)",
    )
    parser.add_argument(
        "--max-campaigns",
        type=int,
        default=4,
        help="concurrent disjoint rollout/heal campaigns (default %(default)s)",
    )
    parser.add_argument(
        "--spec-cache",
        type=int,
        default=8,
        metavar="N",
        help="warm compiled specifications kept resident (default %(default)s)",
    )
    parser.add_argument(
        "--journal-dir",
        metavar="DIR",
        help="write one durable rollout journal per campaign under DIR",
    )
    parser.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write endpoint/pid JSON to PATH once listening",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        dest="metrics_path",
        help="write a final Prometheus scrape to PATH on drain",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        dest="trace_path",
        help=(
            "write the request trace to PATH on drain "
            "(.jsonl = event log, else Chrome trace_event JSON)"
        ),
    )
    parser.add_argument(
        "--audit-log",
        metavar="PATH",
        dest="audit_path",
        help="append one JSONL audit event per admission decision to PATH",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v info, -vv debug)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose, stream=sys.stderr)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1 (got {args.workers})")
    if args.drain_grace < 0:
        parser.error("--drain-grace must be >= 0")
    cpus = os.cpu_count() or 1
    if args.workers > cpus:
        print(
            f"nmsld: warning: --workers {args.workers} exceeds the "
            f"{cpus} available CPUs; extra workers only add memory and "
            "restart surface",
            file=sys.stderr,
        )
    previous = set_current(Observability(process_name="nmsld"))
    try:
        config = ServiceConfig(
            workers=args.workers,
            queue_capacity=args.queue_depth,
            max_campaigns=args.max_campaigns,
            spec_cache_limit=args.spec_cache,
            journal_dir=args.journal_dir,
            audit_path=args.audit_path,
            drain_grace_s=args.drain_grace,
        )
        runtime = AsyncServiceRuntime(
            config=config,
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            http_port=args.http_port,
            ready_file=args.ready_file,
            metrics_path=args.metrics_path,
            trace_path=args.trace_path,
        )
        try:
            return runtime.run()
        except KeyboardInterrupt:
            return 130
        except OSError as exc:
            # e.g. the socket path is owned by a live daemon, or the
            # bind itself failed: a clean diagnostic, not a traceback.
            print(f"nmsld: {exc}", file=sys.stderr)
            return 1
    finally:
        set_current(previous)


if __name__ == "__main__":
    sys.exit(main())
