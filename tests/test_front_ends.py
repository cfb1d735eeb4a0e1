"""``nmslc`` and ``nmsld`` are two front ends to one set of operations.

* Each of ``analyze``, ``diff``, ``rollout`` and ``heal`` has one body, in
  :mod:`repro.operations`: no call that does an op's work appears in
  ``cli.py`` or ``service/handlers.py`` (an ``ast`` walk).
* So the two give the same answer: ``nmslc X --format json`` (or
  ``--report json``) against ``ServiceHandlers.execute`` of op ``X`` on
  ``examples/`` and a slice of the 50-spec corpus.
* A spec that does not compile is refused at the place the first error
  is, by every ``nmslc`` command and by ``nmsld``'s ``compile``.
"""

import ast
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.service.core import ServiceRequest
from repro.service.handlers import ServiceHandlers
from repro.service.protocol import ProtocolError
from repro.workloads.generator import SyntheticInternet

from tests.corpus import corpus

SRC = Path(cli.__file__).resolve().parent
EXAMPLES = sorted(
    str(path) for path in (SRC.parents[1] / "examples").glob("*.nmsl")
)


def _request(op, **params):
    return ServiceRequest(
        id="r", op=op, params=params, cls="interactive", rank=0,
        deadline=None, deadline_s=None, cost_s=0.0, arrival_s=0.0, seq=0,
    )


def nmslc(*argv):
    """(exit code, stdout, stderr) of one in-process ``nmslc``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def nmsld(op, **params):
    """The result of *op* on a daemon with nothing cached yet."""
    return ServiceHandlers().execute(_request(op, **params))


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """The examples, then every tenth corpus spec as NMSL text."""
    root = tmp_path_factory.mktemp("corpus")
    paths = list(EXAMPLES)
    for number, parameters in list(enumerate(corpus()))[::10]:
        path = root / f"spec{number:02d}.nmsl"
        path.write_text(SyntheticInternet(parameters).text(), encoding="utf-8")
        paths.append(str(path))
    return paths


def _where(finding):
    return f"{finding['file']}:{finding['line']}:{finding['column']}"


class TestSameAnswer:
    def test_analyze(self, specs):
        for spec in specs:
            code, out, _ = nmslc("analyze", spec, "--format", "json")
            findings = json.loads(out)["findings"]
            daemon = nmsld("analyze", spec=spec)
            assert daemon["findings"] == len(findings), spec
            assert daemon["gating"] == (code == 1), spec
            assert daemon["diagnostics"] == [
                {
                    "code": finding["code"],
                    "severity": finding["severity"],
                    "message": finding["message"],
                    "location": _where(finding),
                }
                for finding in findings[:50]
            ], spec

    def test_analyze_of_several_specs_is_one_report(self, specs):
        _, out, _ = nmslc("analyze", *specs[:3], "--format", "json")
        findings = json.loads(out)["findings"]
        daemon = nmsld("analyze", specs=specs[:3])
        assert daemon["findings"] == len(findings)
        assert [d["location"] for d in daemon["diagnostics"]] == [
            _where(finding) for finding in findings[:50]
        ]

    def test_diff(self, specs):
        for old, new in zip(specs, specs[1:] + specs[:1]):
            code, out, err = nmslc("diff", old, new, "--format", "json")
            findings = json.loads(out)["findings"]
            entries, impacted, redrives, count = map(
                int,
                re.search(
                    r"(\d+) spec delta entr(?:y|ies), (\d+) impacted "
                    r"element\(s\), (\d+) redrive\(s\), (\d+) finding",
                    err,
                ).groups(),
            )
            daemon = nmsld("diff", old=old, new=new)
            assert daemon["findings"] == [
                {key: finding[key] for key in ("code", "severity", "message")}
                for finding in findings[:50]
            ], (old, new)
            assert count == len(findings)
            assert daemon["gating"] == (code == 1)
            assert daemon["diff_entries"] == entries
            assert len(daemon["impacted_elements"]) == impacted
            assert len(daemon["redrives"]) == redrives

    def test_rollout(self, specs):
        for spec in specs:
            code, out, _ = nmslc(
                "rollout", spec, "--seed", "7", "--baseline-install",
                "--report", "json",
            )
            report = json.loads(out)
            daemon = nmsld(
                "rollout", spec=spec, seed=7, baseline_install=True
            )
            assert daemon["complete"] == (code == 0)
            for key in ("outcomes", "committed", "dead_letter", "duration_s"):
                assert daemon[key] == report[key], (spec, key)

    def test_gated_rollout(self):
        campus, paper = EXAMPLES
        code, out, _ = nmslc(
            "rollout", campus, "--diff-base", campus, "--report", "json"
        )
        daemon = nmsld("rollout", spec=campus, diff_base=campus)
        assert code == 0 and daemon["gated"]
        assert daemon["committed"] == json.loads(out)["committed"]
        # The delta from the paper's internet widens access: both refuse.
        code, _, _ = nmslc("rollout", campus, "--diff-base", paper)
        with pytest.raises(ProtocolError) as refused:
            nmsld("rollout", spec=campus, diff_base=paper)
        assert code == 1 and refused.value.kind == "vetoed"

    def test_heal(self, specs):
        for spec in specs:
            code, out, _ = nmslc(
                "heal", spec, "--install", "--rounds", "3", "--seed", "7",
                "--report", "json",
            )
            report = json.loads(out)
            daemon = nmsld("heal", spec=spec, install=True, rounds=3, seed=7)
            assert daemon["converged"] == report["converged"] == (code == 0)
            assert daemon["rounds"] == len(report["rounds"])
            for key in ("drift_repaired", "quarantined"):
                assert daemon[key] == report[key], (spec, key)
            # The JSON report rounds the duration; the wire carries it whole.
            assert daemon["duration_s"] == pytest.approx(report["duration_s"])


# ----------------------------------------------------------------------
# No op has a second body.
# ----------------------------------------------------------------------
def _op_calls(path: Path):
    """``(line, what)`` for each call in *path* that does an op's work."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", getattr(func, "id", None))
        receiver = getattr(getattr(func, "value", None), "id", None)
        if (
            name == "check_revisions"
            or name == "from_impact"
            or (name in ("rollout", "heal") and receiver != "operations")
            or (name == "run" and receiver == "registry")
            or name == "collate"
        ):
            calls.append((node.lineno, name))
    return calls


def test_op_work_is_called_only_from_the_op_bodies():
    assert {name for _, name in _op_calls(SRC / "operations.py")} == {
        "check_revisions", "from_impact", "rollout", "heal", "collate",
    }
    for front_end in ("cli.py", "service/handlers.py"):
        assert _op_calls(SRC / front_end) == [], front_end


# ----------------------------------------------------------------------
# A refused compile says where.
# ----------------------------------------------------------------------
BROKEN = "\n\nprocess p ::= supports mgmt.mib.nosuch; end process p.\n"


@pytest.fixture
def broken(tmp_path):
    path = tmp_path / "broken.nmsl"
    path.write_text(BROKEN, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ("{broken}", "--check"),
        ("analyze", "{broken}"),
        ("diff", "{good}", "{broken}"),
        ("rollout", "{broken}"),
        ("heal", "{broken}"),
        ("verify-runtime", "{broken}"),
        ("profile", "{broken}"),
    ],
    ids=lambda argv: argv[0].strip("{}"),
)
def test_nmslc_refusal_names_the_first_error(argv, broken, capsys):
    code, _, err = nmslc(
        *(arg.format(broken=broken, good=EXAMPLES[0]) for arg in argv)
    )
    assert code == 2
    assert err.startswith(
        f"nmslc: error: {broken}:3:15: specification has semantic errors:\n"
        f"{broken}:3:15: unknown MIB path"
    ), err


def test_nmsld_compile_refusal_names_the_first_error(broken):
    frame = ServiceHandlers().run(_request("compile", spec=str(broken)))
    assert frame["ok"] is False and frame["kind"] == "compile"
    assert frame["message"].startswith(
        f"{broken}:3:15: specification has semantic errors:"
    )
