"""CLI tests for ``nmslc analyze``."""

import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).parents[2] / "examples"

WARNING_ONLY = """
process agent ::=
    supports mgmt.mib.system, mgmt.mib.ip;
end process agent.
process ghost ::= supports mgmt.mib.udp; end process ghost.
system "server.example" ::=
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agent;
end system "server.example".
"""

WITH_ERROR = """
process agent ::=
    supports mgmt.mib.system, mgmt.mib.ip;
    exports mgmt.mib.ip to "public" access ReadWrite frequency >= 5 minutes;
end process agent.
system "server.example" ::=
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agent;
end system "server.example".
"""


@pytest.fixture
def warning_file(tmp_path):
    path = tmp_path / "warn.nmsl"
    path.write_text(WARNING_ONLY)
    return path


@pytest.fixture
def error_file(tmp_path):
    path = tmp_path / "error.nmsl"
    path.write_text(WITH_ERROR)
    return path


class TestExitCodes:
    def test_warnings_only_exit_zero(self, warning_file, capsys):
        assert main(["analyze", str(warning_file)]) == 0
        out = capsys.readouterr().out
        assert "warning NM101" in out

    def test_errors_gate_exit_one(self, error_file, capsys):
        assert main(["analyze", str(error_file)]) == 1
        assert "error NM202" in capsys.readouterr().out

    def test_compile_failure_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.nmsl"
        bad.write_text("process broken ::= supports")
        assert main(["analyze", str(bad)]) == 2

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "none.nmsl")]) == 2

    def test_multiple_files_merge(self, warning_file, error_file, capsys):
        assert main(["analyze", str(warning_file), str(error_file)]) == 1
        out = capsys.readouterr().out
        assert "NM101" in out and "NM202" in out


class TestFormats:
    def test_sarif_format_valid(self, error_file, capsys):
        assert (
            main(["analyze", str(error_file), "--format", "sarif"]) == 1
        )
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"]

    def test_json_format(self, warning_file, capsys):
        assert main(["analyze", str(warning_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "nmslc-analyze"

    def test_select(self, warning_file, capsys):
        assert (
            main(["analyze", str(warning_file), "--select", "NM301"]) == 0
        )
        assert "no analysis findings" in capsys.readouterr().out


class TestBaselineFlow:
    def test_write_then_gate_clean(self, error_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "analyze",
                    str(error_file),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert "wrote" in capsys.readouterr().err
        assert baseline.exists()
        # With the baseline applied, the same error no longer gates.
        assert (
            main(["analyze", str(error_file), "--baseline", str(baseline)])
            == 0
        )
        assert "(baselined)" in capsys.readouterr().out

    def test_write_baseline_requires_path(self, error_file, capsys):
        assert main(["analyze", str(error_file), "--write-baseline"]) == 2

    def test_repo_examples_gate_clean(self, capsys):
        assert (
            main(
                [
                    "analyze",
                    str(EXAMPLES / "campus.nmsl"),
                    str(EXAMPLES / "paper_internet.nmsl"),
                    "--baseline",
                    str(EXAMPLES / "analysis-baseline.json"),
                ]
            )
            == 0
        )
