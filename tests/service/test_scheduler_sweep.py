"""``nmsld``'s scheduler is pinned in ``tests/service/scheduler_sweep.json``.

:mod:`tests.service.scheduler_sweep` runs seeded
``SimulatedServiceRuntime`` scenarios that together reach every error
kind ``ServiceCore`` emits, and records the hashes of each run's
transcript, audit log and Prometheus text plus the core's counters.  It
changes directory, so it runs in a subprocess here.  After a deliberate
change, rewrite the pinned file with ``make service-sweep-update`` and
name each moved entry in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PINNED = ROOT / "tests" / "service" / "scheduler_sweep.json"


def moved_entries(pinned: dict, swept: dict) -> list:
    """``scenario: artifact`` for every entry that differs; a counter
    moves as ``scenario: counters.name old -> new``."""
    moved = []
    for name in sorted(pinned.keys() | swept.keys()):
        old, new = pinned.get(name), swept.get(name)
        if old is None or new is None:
            moved.append(f"{name}: {'added' if old is None else 'removed'}")
            continue
        for artifact in sorted(old.keys() | new.keys()):
            if artifact == "counters":
                before, after = old[artifact], new.get(artifact, {})
                moved.extend(
                    f"{name}: counters.{counter} "
                    f"{before.get(counter)} -> {after.get(counter)}"
                    for counter in sorted(before.keys() | after.keys())
                    if before.get(counter) != after.get(counter)
                )
            elif old.get(artifact) != new.get(artifact):
                moved.append(f"{name}: {artifact} changed")
    return moved


def test_sweep_matches_the_pinned_file(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "tests.service.scheduler_sweep",
         str(tmp_path)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    swept = json.loads(
        (tmp_path / "scheduler-sweep.json").read_text("utf-8")
    )
    moved = moved_entries(json.loads(PINNED.read_text("utf-8")), swept)
    assert not moved, (
        "the sweep no longer matches tests/service/scheduler_sweep.json "
        "(make service-sweep-update after a deliberate change)\n  "
        + "\n  ".join(moved)
    )


def test_a_moved_entry_is_named():
    pinned = {"poison": {"audit": "a", "counters": {"requests_total": 3}}}
    swept = {"poison": {"audit": "b", "counters": {"requests_total": 4}},
             "new": {}}
    assert moved_entries(pinned, swept) == [
        "new: added",
        "poison: audit changed",
        "poison: counters.requests_total 3 -> 4",
    ]
