"""One runner: a single workload for the driver, or the whole ledger.

Driver form (one workload, one mode, one JSON object on the last line)::

    python3 benchmarks/ledger --workload cold_text_1k --seed 7 --seconds 15 --trace 0

Ledger form (every workload, untraced then traced, every metric by name)::

    python -m benchmarks.ledger [--seed 1989] [--runs N]
    python -m benchmarks.ledger compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import catalogue, cold_text, daemon_mix, edit_stream, full_check
from .common import OUT_DIR, PACKAGE_DIR, Context, Outcome, python
from .compare import compare_files
from .inputs import Sizes
from .record import environment
from .spans import SpanRecorder

WORKLOAD_RUNNERS = {
    "cold_text_1k": cold_text.run,
    "full_check_10k": full_check.run,
    "edit_stream_10k": edit_stream.run,
    "daemon_mix_1k": daemon_mix.run,
}
DEFAULT_SEED = 1989


class Refused(Exception):
    """The run would not measure what it claims to; nothing was started."""


def check_connections(workload: catalogue.Workload, nproc: Optional[int]) -> None:
    """Never more load-generator connections than processors."""
    available = nproc or 1
    if workload.connections > available:
        raise Refused(
            f"{workload.name} drives {workload.connections} connections "
            f"but this host has {available} processor(s)"
        )


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[Sizes] = None,
    out_dir: Optional[Path] = None,
) -> dict:
    """Run one workload once; returns (and files) its full record."""
    workload = next(w for w in catalogue.WORKLOADS if w.name == name)
    check_connections(workload, os.cpu_count())
    out_dir = out_dir or OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    # A short name: the daemon's unix socket lives in here.
    workdir = out_dir / f"w{os.getpid()}"
    workdir.mkdir()
    recorder = SpanRecorder(enabled=trace)
    ctx = Context(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        workdir=workdir,
        sizes=sizes or Sizes(),
        recorder=recorder,
    )
    started = time.perf_counter()
    try:
        outcome = WORKLOAD_RUNNERS[name](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started
    record = _record(ctx, workload, outcome, wall)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        recorder.write_jsonl(out_dir / f"{stem}.spans.jsonl")
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return record


def _record(
    ctx: Context, workload: catalogue.Workload, outcome: Outcome, wall: float
) -> dict:
    declared = catalogue.PER_LAYER if ctx.trace else catalogue.END_TO_END
    if ctx.trace:
        outcome.put(
            "ledger.failed_share", outcome.failed / max(outcome.attempted, 1)
        )
    undeclared = set(outcome.metrics) - {m.name for m in declared}
    if undeclared:
        raise AssertionError(f"undeclared metrics: {sorted(undeclared)}")
    metrics = {}
    for metric in declared:
        if metric.name not in outcome.metrics and not ctx.trace:
            raise AssertionError(f"{ctx.workload}: no value for {metric.name}")
        entry = {
            # A layer the workload does not exercise did no work: 0.
            "value": outcome.metrics.get(metric.name, 0.0),
            "unit": metric.unit,
            "better": metric.better,
        }
        if metric.bound:
            entry["bound"] = metric.bound
        if metric.name in outcome.samples:
            entry["n"] = outcome.samples[metric.name]
        metrics[metric.name] = entry
    return {
        "workload": ctx.workload,
        # What the role metrics time and count on this workload.
        "op_p50_ms_times": workload.headline,
        "ops_per_s_counts": workload.throughput,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "claim": None,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": metrics,
        "counts": outcome.counts,
        "hashes": outcome.hashes,
        "wall_s": wall,
        "environment": environment(),
    }


def driver_line(record: dict) -> str:
    """The one JSON object the driver reads from the last line."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in record["metrics"].items()
            },
        }
    )


def print_metrics(record: dict) -> None:
    for name, entry in record["metrics"].items():
        n = f"  n={entry['n']}" if "n" in entry else ""
        print(
            f"{record['workload']:<16} {name:<46} "
            f"{entry['value']:>14.6g} {entry['unit']}{n}"
        )


# ----------------------------------------------------------------------
# The whole ledger.
# ----------------------------------------------------------------------
def _spawn(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a fresh process (its peak RSS is its own)."""
    completed = subprocess.run(
        [
            python(), str(PACKAGE_DIR),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record_path = OUT_DIR / f"{stem}.json"
    if completed.returncode not in (0, 1) or not record_path.exists():
        raise SystemExit(
            f"{name} (seed {seed}, trace {int(trace)}) exited "
            f"{completed.returncode} without a record"
        )
    return json.loads(record_path.read_text(encoding="utf-8"))


def determinism_problems(records: Sequence[dict]) -> List[str]:
    """Same workload and seed: equal input hashes and equal counts."""
    problems = []
    by_key: Dict[tuple, dict] = {}
    for record in records:
        key = (record["workload"], record["seed"])
        first = by_key.setdefault(key, record)
        if first is record:
            continue
        for field, kind in (("hashes", "hash"), ("counts", "count")):
            for name in sorted(set(first[field]) & set(record[field])):
                if first[field][name] != record[field][name]:
                    problems.append(
                        f"{key[0]} seed {key[1]}: {kind} {name} "
                        f"{first[field][name]} != {record[field][name]}"
                    )
    return problems


def run_ledger(seed: int, seconds: float, runs: int) -> int:
    started = time.perf_counter()
    records: List[dict] = []
    for offset in range(runs):
        for name in catalogue.WORKLOAD_NAMES:
            # Per-layer numbers come from one traced run (the first seed).
            for trace in (False, True) if offset == 0 else (False,):
                record = _spawn(name, seed + offset, seconds, trace)
                print_metrics(record)
                records.append(record)
    problems = determinism_problems(records)
    failed = sum(record["failed"] for record in records)
    ledger = {
        "claim": None,
        "seed": seed,
        "seconds": seconds,
        "runs": runs,
        "wall_s": time.perf_counter() - started,
        "environment": environment(),
        "determinism_problems": problems,
        "records": records,
    }
    path = OUT_DIR / f"ledger-seed{seed}-{int(time.time())}.json"
    path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"NOT DETERMINISTIC: {problem}")
    for record in records:
        for failure in record["failures"]:
            print(f"FAILED: {record['workload']}: {failure}")
    print(f"wrote {path} ({ledger['wall_s']:.0f} s)")
    return 1 if failed or problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_files(*_compare_args(argv[1:]))
    if argv[:1] == ["full-check-child"]:
        return full_check.child_main(argv[1:])
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__)
    parser.add_argument("--workload", choices=catalogue.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=1,
        help="ledger form: untraced runs per workload, on seeds seed..seed+runs-1",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload is None:
            for workload in catalogue.WORKLOADS:
                check_connections(workload, os.cpu_count())
            return run_ledger(args.seed, args.seconds, args.runs)
        record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except Refused as refusal:
        print(f"benchmarks.ledger: refused: {refusal}", file=sys.stderr)
        return 2
    print_metrics(record)
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(driver_line(record))
    return 0 if record["correct"] else 1


def _compare_args(argv: Sequence[str]):
    parser = argparse.ArgumentParser(prog="benchmarks.ledger compare")
    parser.add_argument("a", type=Path, help="ledger JSON of the parent")
    parser.add_argument("b", type=Path, help="ledger JSON of the change")
    args = parser.parse_args(argv)
    return args.a, args.b
