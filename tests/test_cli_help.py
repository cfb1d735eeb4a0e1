"""Every ``--help`` text is pinned byte for byte.

``tests/cli_help/`` holds the help of each ``nmslc`` subcommand and of
``nmsld`` at 80 columns.  An option's name, type, default, metavar or
wording can then only change together with its golden file, in the same
diff.  After a deliberate change, rewrite the goldens with::

    PYTHONPATH=src python -m tests.test_cli_help
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from repro import cli
from repro.service import daemon

GOLDENS = Path(__file__).resolve().parent / "cli_help"
COLUMNS = "80"

#: golden file stem -> (entry point, argv)
COMMANDS = {
    "nmslc": (cli.main, ["--help"]),
    **{
        f"nmslc-{sub}": (cli.main, [sub, "--help"])
        for sub in (
            "analyze", "diff", "rollout", "heal", "verify-runtime",
            "profile", "top",
        )
    },
    "nmsld": (daemon.main, ["--help"]),
}


def render(name: str) -> str:
    """What ``--help`` prints for *name* (COLUMNS must be set)."""
    entry, argv = COMMANDS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as done:
        entry(argv)
    assert done.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_help_matches_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    golden = (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
    assert render(name) == golden


def test_no_stray_goldens():
    assert sorted(path.stem for path in GOLDENS.glob("*.txt")) == sorted(
        COMMANDS
    )


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDENS.mkdir(exist_ok=True)
    for stem in sorted(COMMANDS):
        (GOLDENS / f"{stem}.txt").write_text(render(stem), encoding="utf-8")
        print(f"wrote {GOLDENS.name}/{stem}.txt")
