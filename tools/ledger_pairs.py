"""Alternating base/change pairs of one perf-ledger workload.

    python3 tools/ledger_pairs.py --base BASE --workload W [--pairs N] [--seed S]
    make ledger-pairs BASE=REV WORKLOAD=W [PAIRS=N]

Exports the committed files of git revision BASE into a temporary
directory (``git archive``: what a fresh checkout of BASE holds, and no
worktree left registered if the run is killed), then runs

    python3 benchmarks/ledger --workload W --seed S --trace 0

in that directory and in the working tree in turn, PAIRS times; the
side that runs first alternates from pair to pair.  For each pair it
prints the ledger's end-to-end metrics, then per metric the median of
each side, the change of the medians, the number of pairs in which the
change did better, and the ledger's own verdict on the two sides
(``compare.judge``: ``worse`` beyond the metric's bound, ``unresolved``
when the spread is wider than the bound, else ``ok``).  A timing claim
is a statement about these pairs.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from benchmarks.ledger import catalogue  # noqa: E402
from benchmarks.ledger.compare import judge  # noqa: E402
from benchmarks.ledger.stats import median  # noqa: E402


def export(revision: str, into: Path) -> None:
    """The committed files of *revision*, unpacked under *into*."""
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", revision], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {revision} failed")


def run(tree: Path, workload: str, seed: int) -> dict:
    """One untraced ledger run in *tree*: the JSON of its last line."""
    command = [
        sys.executable, "benchmarks/ledger",
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=tree, stdout=subprocess.PIPE, text=True
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{tree}: the ledger exited {completed.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ledger_pairs", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"base": [], "change": []}
    wrong = 0
    with tempfile.TemporaryDirectory(prefix="ledger-pairs-") as scratch:
        base_tree = Path(scratch)
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run(trees[side], args.workload, args.seed)
                wrong += not result["correct"]
                sides[side].append(result["metrics"])
            print(f"pair {pair + 1} ({order[0]} first)")
            for metric in catalogue.END_TO_END:
                base = sides["base"][-1][metric.name]["value"]
                change = sides["change"][-1][metric.name]["value"]
                print(f"  {metric.name:<12} {base:>12.4g} -> {change:>12.4g} {metric.unit}")
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, base {args.base}")
    print(f"  {'metric':<12} {'base p50':>10} {'change p50':>10} {'change':>8} "
          f"{'better':>7} {'spread':>7} {'bound':>6}  verdict")
    for metric in catalogue.END_TO_END:
        base = [run_metrics[metric.name]["value"] for run_metrics in sides["base"]]
        change = [run_metrics[metric.name]["value"] for run_metrics in sides["change"]]
        lower = metric.better == "lower"
        better = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        base_median, change_median = median(base), median(change)
        moved = (change_median - base_median) / base_median if base_median else 0.0
        verdict, _worsening, widest = judge(metric, base, change)
        print(
            f"  {metric.name:<12} {base_median:>10.4g} {change_median:>10.4g} "
            f"{moved:>+8.1%} {better:>3}/{args.pairs:<3} {widest:>7.1%} "
            f"{metric.bound:>6.0%}  {verdict}"
        )
    if wrong:
        print(f"{wrong} run(s) answered wrongly")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
