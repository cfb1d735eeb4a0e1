"""Run ``nmslc`` over ``examples/`` and the 50-spec corpus; record what it said.

Writes ``OUT/cli-sweep.json``: under ``commands``, one entry per command,
``{command: [exit code, sha256(stdout), sha256(stderr)]}``; under
``spools``, the sha256 of every file the ``--ship-dir`` commands wrote
to ``OUT/specs/shipped/SPEC-TAG``.  The specs are copied into
``OUT/specs`` and every command runs in-process from there on relative
paths, so two checkouts give comparable files.  ``tests/cli_sweep.json``
is this file for the committed code; ``tests/test_cli_sweep.py`` holds
a fresh sweep to it, and after a deliberate change::

    make cli-sweep-update                 # rewrites tests/cli_sweep.json
    make cli-sweep OUT=/tmp/after         # or: sweep into a directory

The corpus is :mod:`tests.corpus`'s (seed 1989), written as NMSL text;
two deliberately broken specs (a semantic error and a syntax error)
cover the refusal paths of every subcommand.  The ``edge-*`` specs are
the paper example rewritten to reach the parser's token-by-token path:
comments and strings holding ``;`` or ``--`` inside clauses, CRLF line
ends, ``\x0c``/``\x1c`` blanks, non-ASCII text, and a lexical error after
a syntax error.  Two more rewrite the campus example for the fact
renderings: ``edge-quote`` names a system ``gw.cs.o'neil.edu`` (the
CLP(R) text must escape the quote), ``edge-prefix`` adds an exporting
domain ``cs`` beside ``cs-domain`` and eleven agents on one element
(``#1`` beside ``#10``), so no grantor is a prefix match.

Standard library only: the sweep runs without ``pytest`` installed.
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
SHIPPED = ("BartsSnmpd", "acl-table", "osi")
BROKEN = {
    "semantic.nmsl": "process p ::= supports mgmt.mib.nosuch; end process p.\n",
    "syntax.nmsl": "process broken ::= supports",
}


#: Appended to the campus example by ``edge-prefix``.
PREFIX_DOMAIN = """
domain cs ::=
    exports mgmt.mib.system to noc-domain
        access ReadOnly
        frequency >= 5 minutes;
end domain cs.
"""


def edge_specs():
    """Edge cases, each an example with one rewrite."""
    from tests.corpus import quoted_campus

    paper = (ROOT / "examples" / EXAMPLES[1]).read_text(encoding="utf-8")
    campus = (ROOT / "examples" / EXAMPLES[0]).read_text(encoding="utf-8")
    agents = '    process snmpAgent;\nend system "noc.campus.edu".'
    return {
        "edge-comments.nmsl": paper.replace(
            "supports\n", "supports -- a comment; inside a clause\n"
        ).replace("requests\n", 'requests -- "quoted"; (paren --\n'),
        "edge-strings.nmsl": paper.replace(
            "version 4.0.1;", 'version "4.0.1; -- (beta)";'
        ).replace("cpu sparc;", 'cpu "sparc;--";'),
        "edge-crlf.nmsl": paper.replace("\n", "\r\n"),
        "edge-blanks.nmsl": paper.replace("\n    ", "\n\x0c \x1c "),
        "edge-nonascii.nmsl": paper.replace(
            "-- entire MIB subtree", "-- tout le sous-arbre, é λ"
        ).replace("cpu sparc;", 'cpu "spärc";', 1),
        "edge-nonascii-bad.nmsl": paper.replace("cpu sparc;", "cpu spärc;", 1),
        "edge-lex-after-syntax.nmsl": paper.replace(
            "access ReadOnly;", "access ReadOnly;;", 1
        ) + "process x ::= supports @; end process x.\n",
        "edge-quote.nmsl": quoted_campus(),
        "edge-prefix.nmsl": campus.replace(
            agents, "    process snmpAgent;\n" * 10 + agents
        ) + PREFIX_DOMAIN,
    }


def _write_specs(specs: Path):
    """The example and corpus specs under *specs*; returns the corpus names."""
    from repro.workloads.generator import SyntheticInternet
    from tests.corpus import corpus as draw_corpus

    specs.mkdir(parents=True, exist_ok=True)
    for name in EXAMPLES:
        shutil.copyfile(ROOT / "examples" / name, specs / name)
    shutil.copyfile(
        ROOT / "examples" / "analysis-baseline.json", specs / "baseline.json"
    )
    for name, text in BROKEN.items():
        (specs / name).write_text(text, encoding="utf-8")
    for name, text in edge_specs().items():
        with open(specs / name, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    corpus = []
    for number, parameters in enumerate(draw_corpus()):
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
    # ``bart.watcher`` is the help text's example and names no campus
    # instance; ``nocMonitor@noc-domain#1`` does.
    for client in ("bart.watcher", "nocMonitor@noc-domain#1"):
        yield ["verify-runtime", campus, "--misbehave", f"{client}:5",
               "--loss", "0.1", "--format", "json"]
    for spec in EXAMPLES:
        for tag in SHIPPED:
            yield _ship(spec, tag)
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
    for edge in edge_specs():
        yield [edge, "--check", "--output", "BartsSnmpd"]
        yield ["analyze", edge, "--format", "json"]
    for edge in ("edge-quote.nmsl", "edge-prefix.nmsl"):
        yield [edge, "--check", "--engine", "clpr"]
        for tag in ("acl-table", "consistency"):
            yield [edge, "--output", tag]
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
        yield ["verify-runtime", spec, "--format", "json"]
        yield _ship(spec, "acl-table")
        previous = spec


def _ship(spec, tag):
    """Ship *tag* for *spec* into a spool of its own, kept for ``diff -r``."""
    return [spec, "--output", tag, "--ship-dir",
            f"shipped/{Path(spec).stem}-{tag}"]


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


def spool_digests(specs: Path):
    """{path under *specs*: sha256} of every file under ``shipped/``."""
    return {
        path.relative_to(specs).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((specs / "shipped").rglob("*"))
        if path.is_file()
    }


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
    spools = spool_digests(specs)
    (out / "cli-sweep.json").write_text(
        json.dumps({"commands": results, "spools": spools}, indent=1,
                   sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"swept {len(results)} commands and {len(spools)} spool files "
          f"into {out / 'cli-sweep.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
