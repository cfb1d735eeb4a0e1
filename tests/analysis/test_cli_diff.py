"""CLI tests for ``nmslc diff`` and ``rollout --diff-base``."""

import json
from pathlib import Path

import pytest

from repro.cli import main

SPEC = """
process agent ::=
    supports mgmt.mib.system, mgmt.mib.ip;
end process agent.
process watcher(T: Process) ::=
    queries T requests mgmt.mib.ip frequency >= 10 minutes;
end process watcher.
system "server.example" ::=
    cpu sparc;
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agent;
end system "server.example".
system "noc.example" ::=
    cpu sparc;
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agent;
end system "noc.example".
domain servers ::=
    system server.example;
    exports mgmt.mib.ip to clients access {access} frequency >= 5 minutes;
end domain servers.
domain clients ::=
    system noc.example;
    process watcher(server.example);
end domain clients.
"""


@pytest.fixture
def revisions(tmp_path):
    old = tmp_path / "old.nmsl"
    old.write_text(SPEC.format(access="ReadOnly"))
    new = tmp_path / "new.nmsl"
    new.write_text(SPEC.format(access="ReadWrite"))
    return old, new


class TestExitCodes:
    def test_self_diff_exits_zero(self, revisions, capsys):
        old, _ = revisions
        assert main(["diff", str(old), str(old)]) == 0
        assert "no analysis findings" in capsys.readouterr().out

    def test_widening_exits_one(self, revisions, capsys):
        old, new = revisions
        assert main(["diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "error NM401" in out
        assert "access-widened-grant" in out
        assert "new.nmsl" in out  # span on the B-side source

    def test_compile_error_exits_two(self, revisions, tmp_path, capsys):
        old, _ = revisions
        broken = tmp_path / "broken.nmsl"
        broken.write_text("this is not nmsl")
        assert main(["diff", str(old), str(broken)]) == 2

    def test_grant_to_a_contained_domain_exits_zero(self, tmp_path, capsys):
        """engr-domain grants mgmt.mib to campus; adding the same grant
        to noc-domain, which campus contains, confers nothing new."""
        campus = (
            Path(__file__).resolve().parents[2] / "examples" / "campus.nmsl"
        ).read_text(encoding="utf-8")
        grant = (
            "    exports mgmt.mib to {grantee}\n"
            "        access ReadOnly\n"
            "        frequency >= 5 minutes;\n"
        )
        engr = grant.format(grantee="noc-domain") + "end domain engr-domain."
        assert engr in campus
        old = tmp_path / "old.nmsl"
        old.write_text(
            campus.replace(
                engr, grant.format(grantee="campus") + "end domain engr-domain."
            )
        )
        new = tmp_path / "new.nmsl"
        new.write_text(
            campus.replace(
                engr,
                grant.format(grantee="campus")
                + grant.format(grantee="noc-domain")
                + "end domain engr-domain.",
            )
        )
        assert main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "NM401" not in out
        assert "no analysis findings" in out

    def test_missing_file_exits_two(self, revisions):
        old, _ = revisions
        assert main(["diff", str(old), str(old.parent / "nope.nmsl")]) == 2


class TestWaiverFlow:
    def test_update_waiver_then_clean(self, revisions, tmp_path, capsys):
        old, new = revisions
        waiver = tmp_path / "waivers.json"
        assert main(
            ["diff", str(old), str(new), "--waiver", str(waiver),
             "--update-waiver"]
        ) == 0
        payload = json.loads(waiver.read_text())
        assert payload["tool"] == "nmslc-diff"
        assert payload["schema"] == 1
        assert payload["suppressions"]
        assert main(
            ["diff", str(old), str(new), "--waiver", str(waiver)]
        ) == 0
        assert "baselined" in capsys.readouterr().out

    def test_update_waiver_needs_waiver_path(self, revisions, capsys):
        old, new = revisions
        assert main(["diff", str(old), str(new), "--update-waiver"]) == 2
        assert "--waiver" in capsys.readouterr().err


class TestFormats:
    def test_sarif_format(self, revisions, capsys):
        old, new = revisions
        assert main(
            ["diff", str(old), str(new), "--format", "sarif"]
        ) == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        (result,) = sarif["runs"][0]["results"]
        assert result["ruleId"] == "NM401"

    def test_json_report_file(self, revisions, tmp_path, capsys):
        old, new = revisions
        report_file = tmp_path / "impact.json"
        assert main(
            ["diff", str(old), str(new), "--format", "json",
             "--report-file", str(report_file)]
        ) == 1
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(report_file.read_text())
        assert stdout_payload == file_payload
        assert file_payload["summary"]["errors"] == 1

    def test_repeated_runs_are_byte_identical(self, revisions, capsys):
        old, new = revisions
        main(["diff", str(old), str(new), "--format", "json"])
        first = capsys.readouterr().out
        main(["diff", str(old), str(new), "--format", "json"])
        assert capsys.readouterr().out == first


class TestRolloutGating:
    def test_unwaived_rollout_refused(self, revisions, capsys):
        old, new = revisions
        assert main(["rollout", str(new), "--diff-base", str(old)]) == 1
        captured = capsys.readouterr()
        assert "NM401" in captured.out
        assert "rollout refused" in captured.err

    def test_waived_rollout_stages_only_impacted(
        self, revisions, tmp_path, capsys
    ):
        old, new = revisions
        waiver = tmp_path / "waivers.json"
        assert main(
            ["diff", str(old), str(new), "--waiver", str(waiver),
             "--update-waiver"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["rollout", str(new), "--diff-base", str(old),
             "--waiver", str(waiver)]
        ) == 0
        captured = capsys.readouterr()
        assert "server.example" in captured.out
        # The unimpacted noc host is not part of the campaign.
        assert "noc.example: committed" not in captured.out
