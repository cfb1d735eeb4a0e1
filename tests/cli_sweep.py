"""Run ``nmslc`` over ``examples/`` and the 50-spec corpus; record what it said.

Writes ``OUT/cli-sweep.json``, one entry per command:
``{command: [exit code, sha256(stdout), sha256(stderr)]}``.  The specs are
copied into ``OUT/specs`` and every command runs in-process from there on
relative paths, so two checkouts give comparable files::

    make cli-sweep OUT=/tmp/before        # on one checkout
    make cli-sweep OUT=/tmp/after         # on the other
    diff /tmp/before/cli-sweep.json /tmp/after/cli-sweep.json

The corpus is :mod:`tests.consistency.test_differential`'s (seed 1989),
written as NMSL text; two deliberately broken specs (a semantic error and
a syntax error) cover the refusal paths of every subcommand.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ("campus.nmsl", "paper_internet.nmsl")
TAGS = ("BartsSnmpd", "acl-table", "consistency", "osi")
BROKEN = {
    "semantic.nmsl": "process p ::= supports mgmt.mib.nosuch; end process p.\n",
    "syntax.nmsl": "process broken ::= supports",
}


def _write_specs(specs: Path):
    """The example and corpus specs under *specs*; returns the corpus names."""
    from repro.workloads.generator import SyntheticInternet
    from tests.consistency.test_differential import _corpus

    specs.mkdir(parents=True, exist_ok=True)
    for name in EXAMPLES:
        shutil.copyfile(ROOT / "examples" / name, specs / name)
    shutil.copyfile(
        ROOT / "examples" / "analysis-baseline.json", specs / "baseline.json"
    )
    for name, text in BROKEN.items():
        (specs / name).write_text(text, encoding="utf-8")
    corpus = []
    for number, parameters in enumerate(_corpus()):
        name = f"spec{number:02d}.nmsl"
        (specs / name).write_text(
            SyntheticInternet(parameters).text(), encoding="utf-8"
        )
        corpus.append(name)
    return corpus


def commands(corpus):
    """Every swept argv."""
    campus, paper = EXAMPLES
    for spec in EXAMPLES:
        yield [spec]
        yield [spec, "--check"]
        yield [spec, "--check", "--capacity"]
        yield [spec, "--check", "--engine", "scan"]
        yield [spec, "--format"]
        yield [spec, "--list-tags"]
        for tag in TAGS:
            yield [spec, "--output", tag]
        yield [spec, "--check", "--output", "BartsSnmpd"]
        for fmt in ("text", "json", "sarif"):
            yield ["analyze", spec, "--format", fmt]
        for report in ("text", "json"):
            yield ["rollout", spec, "--report", report]
            yield ["heal", spec, "--install", "--rounds", "3", "--report", report]
            yield ["verify-runtime", spec, "--format", report]
    yield [campus, "--check", "--diff-against", paper]
    yield [paper, "--check", "--diff-against", campus]
    yield ["analyze", campus, paper, "--baseline", "baseline.json"]
    yield ["analyze", campus, paper, "--select", "NM201,NM301"]
    for old, new in ((paper, campus), (campus, paper), (campus, campus)):
        for fmt in ("text", "json", "sarif"):
            yield ["diff", old, new, "--format", fmt]
    yield ["diff", campus, paper, "--full-config-scan", "--output",
           "BartsSnmpd,acl-table"]
    yield ["rollout", campus, "--chaos-loss", "0.2", "--seed", "7",
           "--baseline-install", "--report", "json"]
    yield ["rollout", campus, "--diff-base", campus]
    yield ["rollout", campus, "--diff-base", paper]
    yield ["heal", campus, "--rounds", "6", "--chaos-loss", "0.1", "--seed",
           "7", "--report", "json"]
    for broken in BROKEN:
        yield [broken, "--check"]
        yield [broken, "--lax"]
        yield ["analyze", broken]
        yield ["analyze", broken, "--lax"]
        yield ["diff", broken, campus]
        yield ["diff", campus, broken]
        yield ["rollout", broken]
        yield ["rollout", campus, "--diff-base", broken]
        yield ["heal", broken]
        yield ["verify-runtime", broken]
        yield ["profile", broken]
    previous = campus
    for number, spec in enumerate(corpus):
        yield [spec, "--check"]
        yield ["analyze", spec, "--format", "json"]
        yield ["diff", previous, spec, "--format", "json"]
        if number % 2:
            yield ["heal", spec, "--install", "--rounds", "2", "--report",
                   "json"]
        else:
            yield ["rollout", spec, "--report", "json"]
        previous = spec


def run(argv):
    """[exit, sha256(stdout), sha256(stderr)] of one in-process ``nmslc``."""
    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a traceback is an outcome too
            code = "traceback"
            err.write(traceback.format_exc(limit=0))
    return [
        code,
        hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m tests.cli_sweep OUT", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    specs = out / "specs"
    corpus = _write_specs(specs)
    cwd = os.getcwd()
    os.chdir(specs)
    try:
        results = {" ".join(argv): run(argv) for argv in commands(corpus)}
    finally:
        os.chdir(cwd)
    (out / "cli-sweep.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"swept {len(results)} commands into {out / 'cli-sweep.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
