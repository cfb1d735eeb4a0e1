"""``nmslc``'s whole sweep is pinned in ``tests/cli_sweep.json``.

:mod:`tests.cli_sweep` runs ~410 commands over ``examples/`` and the
50-spec corpus and records each one's exit code and stdout/stderr
hashes, plus the hash of every file its ``--ship-dir`` spools hold.  It
changes directory and freezes the collector, so it runs in a
subprocess here.  After a deliberate change, rewrite the pinned file
with ``make cli-sweep-update`` and name each moved entry in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "cli_sweep.json"

#: Changed commands re-run to explain a failure, and lines shown of each.
SHOWN, HEAD = 10, 12


def _python(args, cwd):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=600,
    )


def _explain(command: str, specs: Path) -> str:
    """The command's new exit code and the head of its stdout/stderr."""
    done = _python(["-m", "repro.cli", *command.split(" ")], cwd=specs)
    lines = [f"$ nmslc {command}  (exit {done.returncode})"]
    for name, text in (("stdout", done.stdout), ("stderr", done.stderr)):
        head = text.splitlines()[:HEAD]
        lines.extend(f"  {name}| {line}" for line in head)
    return "\n".join(lines)


def _change(old, new) -> str:
    """What moved in one entry: a command's exit code or streams, or a
    spool file's bytes."""
    if old is None or new is None:
        return "added" if old is None else "removed"
    if isinstance(old, str):
        return "bytes changed"
    moved = [
        f"{name} changed"
        for name, before, after in zip(("stdout", "stderr"), old[1:], new[1:])
        if before != after
    ]
    if old[0] != new[0]:
        moved.insert(0, f"exit {old[0]} -> {new[0]}")
    return ", ".join(moved)


def test_sweep_matches_the_pinned_file(tmp_path):
    done = _python(["-m", "tests.cli_sweep", str(tmp_path)], cwd=ROOT)
    assert done.returncode == 0, done.stderr
    swept = json.loads((tmp_path / "cli-sweep.json").read_text("utf-8"))
    pinned = json.loads(PINNED.read_text("utf-8"))
    if swept == pinned:
        return
    report = []
    for section in ("commands", "spools"):
        old, new = pinned[section], swept[section]
        moved = sorted(
            key for key in old.keys() | new.keys()
            if old.get(key) != new.get(key)
        )
        report.append(f"{len(moved)} {section} moved:")
        report.extend(
            f"  {key}: {_change(old.get(key), new.get(key))}" for key in moved
        )
        if section == "commands":
            report.extend(
                _explain(command, tmp_path / "specs")
                for command in moved[:SHOWN] if command in new
            )
    raise AssertionError(
        "the sweep no longer matches tests/cli_sweep.json "
        "(make cli-sweep-update after a deliberate change)\n"
        + "\n".join(report)
    )
