"""``nmslc``'s operator subcommands are pinned byte for byte on ``examples/``.

``tests/cli_golden/`` holds, per command, its exit code (first line,
``exit N``) and its stdout: ``analyze``, ``diff``, ``rollout``, ``heal``
and ``verify-runtime`` in every report format each has, a gated
rollout either side of its veto, and a fixed-seed rollout and heal
under ``--chaos-loss``.  Commands run from the repository root on
relative paths, so the goldens name files as an operator would.  After
a deliberate change, rewrite the goldens with::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = Path(__file__).resolve().parent / "cli_golden"

CAMPUS = "examples/campus.nmsl"
PAPER = "examples/paper_internet.nmsl"
BASELINE = "examples/analysis-baseline.json"

#: golden file stem -> nmslc argv
COMMANDS = {
    **{
        f"analyze-{fmt}": ["analyze", CAMPUS, PAPER, "--format", fmt]
        for fmt in ("text", "json", "sarif")
    },
    "analyze-baseline": ["analyze", CAMPUS, PAPER, "--baseline", BASELINE],
    "analyze-select": ["analyze", CAMPUS, "--select", "NM201,NM301"],
    **{
        f"diff-{fmt}": ["diff", PAPER, CAMPUS, "--format", fmt]
        for fmt in ("text", "json", "sarif")
    },
    "diff-unchanged": ["diff", CAMPUS, CAMPUS],
    "diff-full-scan": [
        "diff", CAMPUS, PAPER, "--full-config-scan", "--output",
        "BartsSnmpd,acl-table",
    ],
    **{
        f"rollout-{fmt}": ["rollout", PAPER, "--report", fmt]
        for fmt in ("text", "json")
    },
    "rollout-campus": ["rollout", CAMPUS, "--report", "json"],
    "rollout-chaos": [
        "rollout", CAMPUS, "--report", "json", "--chaos-loss", "0.2",
        "--seed", "7", "--baseline-install",
    ],
    "rollout-gated": ["rollout", CAMPUS, "--diff-base", CAMPUS],
    "rollout-vetoed": ["rollout", CAMPUS, "--diff-base", PAPER],
    **{
        f"heal-{fmt}": [
            "heal", PAPER, "--install", "--rounds", "3", "--report", fmt,
        ]
        for fmt in ("text", "json")
    },
    "heal-chaos": [
        "heal", CAMPUS, "--rounds", "6", "--chaos-loss", "0.1", "--seed",
        "7", "--report", "json",
    ],
    **{
        f"verify-runtime-{fmt}": ["verify-runtime", CAMPUS, "--format", fmt]
        for fmt in ("text", "json")
    },
}


def render(name: str) -> str:
    """``exit N``, then what ``nmslc`` prints on stdout for *name*.

    Runs from the repository root; stderr is not pinned here."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = cli.main(COMMANDS[name])
    finally:
        os.chdir(cwd)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    golden = (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
    assert render(name) == golden


def test_no_stray_goldens():
    assert sorted(path.stem for path in GOLDENS.glob("*.txt")) == sorted(
        COMMANDS
    )


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for stem in sorted(COMMANDS):
        (GOLDENS / f"{stem}.txt").write_text(render(stem), encoding="utf-8")
        print(f"wrote {GOLDENS.name}/{stem}.txt")
