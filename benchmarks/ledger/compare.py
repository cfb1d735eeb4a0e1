"""``compare A.json B.json`` — apply each metric's bound, per workload.

Both files are ledgers written by the runner (``--runs N`` puts N
untraced runs per workload in one).  One row per end-to-end metric and
workload:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread on either side is wider than
  the bound, so a difference of that size could not be seen — unless
  every run of B reads better than every run of A;
* ``ok`` — otherwise.

Exact counts that differ between the two are listed after the table:
a changed count is a change, not noise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from . import catalogue
from .stats import median, spread


def _load(path: Path):
    """``(untraced values per (workload, metric), exact counts)``."""
    records = json.loads(path.read_text(encoding="utf-8"))["records"]
    values: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if record["trace"]:
            continue
        for name, entry in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(entry["value"])
    counts = {
        (record["workload"], record["seed"], name): value
        for record in records
        for name, value in record["counts"].items()
    }
    return values, counts


def judge(metric: catalogue.Metric, a: List[float], b: List[float]) -> Tuple[str, float, float]:
    """``(verdict, worsening as a share of A's median, widest spread)``."""
    sign = 1.0 if metric.better == "lower" else -1.0
    centre = median(a)
    worsening = sign * (median(b) - centre) / centre if centre else 0.0
    widest = max(
        (spread(side) for side in (a, b) if len(side) >= 2), default=0.0
    )
    if worsening > metric.bound:
        return "worse", worsening, widest
    if widest > metric.bound:
        separated = (
            max(b) < min(a) if metric.better == "lower" else min(b) > max(a)
        )
        if not separated:
            return "unresolved", worsening, widest
    return "ok", worsening, widest


def compare_files(path_a: Path, path_b: Path) -> int:
    (a, counts_a), (b, counts_b) = _load(path_a), _load(path_b)
    bad = 0
    print(
        f"{'workload':<16} {'metric':<12} {'A median':>12} {'B median':>12} "
        f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    )
    for workload in catalogue.WORKLOAD_NAMES:
        for metric in catalogue.END_TO_END:
            key = (workload, metric.name)
            if key not in a or key not in b:
                print(f"{workload:<16} {metric.name:<12} missing on one side")
                bad += 1
                continue
            verdict, worsening, widest = judge(metric, a[key], b[key])
            bad += verdict != "ok"
            print(
                f"{workload:<16} {metric.name:<12} {median(a[key]):>12.5g} "
                f"{median(b[key]):>12.5g} {worsening:>+9.1%} {widest:>7.1%} "
                f"{metric.bound:>6.0%}  {verdict}"
                f"  (n={len(a[key])},{len(b[key])})"
            )
    for key in sorted(set(counts_a) & set(counts_b)):
        if counts_a[key] != counts_b[key]:
            workload, seed, name = key
            print(
                f"count changed: {workload} seed {seed} {name}: "
                f"{counts_a[key]} -> {counts_b[key]}"
            )
    return 1 if bad else 0
