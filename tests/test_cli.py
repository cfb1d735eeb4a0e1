"""Tests for the nmslc command line."""

import gc

import pytest

from repro import cli, collector
from repro.cli import main
from repro.workloads.paper import PAPER_SPEC_TEXT
from repro.workloads.scenarios import campus_internet

BILLING_EXTENSION = """
extension billing;
keyword billing in process;
output acct-report for process.billing emit "charge {name} {arg0}";
"""


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.nmsl"
    path.write_text(PAPER_SPEC_TEXT)
    return path


class TestCompileOnly:
    def test_success(self, paper_file, capsys):
        assert main([str(paper_file)]) == 0
        out = capsys.readouterr().out
        assert "2 processes" in out
        assert "2 systems" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "none.nmsl")]) == 2

    def test_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.nmsl"
        bad.write_text("process broken ::= supports")
        assert main([str(bad)]) == 2

    def test_semantic_error_lax(self, tmp_path, capsys):
        bad = tmp_path / "bad.nmsl"
        bad.write_text("process p ::= supports mgmt.mib.nosuch; end process p.")
        assert main([str(bad), "--lax"]) == 1
        assert "unknown MIB path" in capsys.readouterr().err


class TestCheck:
    def test_consistent(self, paper_file, capsys):
        assert main([str(paper_file), "--check"]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_inconsistent_exit_code(self, tmp_path, capsys):
        path = tmp_path / "campus.nmsl"
        path.write_text(campus_internet(include_noc_permission=False))
        assert main([str(path), "--check"]) == 1
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_clpr_engine(self, paper_file, capsys):
        assert main([str(paper_file), "--check", "--engine", "clpr"]) == 0


class TestOutput:
    def test_consistency_facts_to_stdout(self, paper_file, capsys):
        assert main([str(paper_file), "--output", "consistency"]) == 0
        assert "proc_supports(snmpdReadOnly" in capsys.readouterr().out

    def test_snmpd_output(self, paper_file, capsys):
        assert main([str(paper_file), "--output", "BartsSnmpd"]) == 0
        assert "snmpd.conf for romano" in capsys.readouterr().out

    def test_ship_dir(self, paper_file, tmp_path, capsys):
        spool = tmp_path / "spool"
        assert (
            main([str(paper_file), "--output", "BartsSnmpd", "--ship-dir", str(spool)])
            == 0
        )
        assert (spool / "romano.cs.wisc.edu.conf").exists()
        assert "shipped" in capsys.readouterr().out

    def test_mail_dir(self, paper_file, tmp_path, capsys):
        spool = tmp_path / "mail"
        assert (
            main([str(paper_file), "--output", "BartsSnmpd", "--mail-dir", str(spool)])
            == 0
        )
        assert list(spool.glob("msg-*.eml"))

    def test_unknown_tag(self, paper_file, capsys):
        assert main([str(paper_file), "--output", "bogus"]) == 2
        assert "no output actions" in capsys.readouterr().err


class TestFormatAndLint:
    def test_format_round_trips(self, paper_file, capsys, tmp_path):
        assert main([str(paper_file), "--format"]) == 0
        rendered = capsys.readouterr().out
        assert rendered.startswith("type ipAddrTable ::=")
        # The formatted output recompiles to the same counts.
        reformatted = tmp_path / "fmt.nmsl"
        reformatted.write_text(rendered)
        assert main([str(reformatted)]) == 0

    def test_list_tags(self, paper_file, capsys):
        assert main([str(paper_file), "--list-tags"]) == 0
        out = capsys.readouterr().out.split()
        assert {"consistency", "BartsSnmpd", "acl-table", "osi"} <= set(out)

    def test_capacity_flag(self, paper_file, capsys):
        assert main([str(paper_file), "--check", "--capacity"]) == 0


class TestDiffAgainst:
    def test_breaking_change_flagged(self, tmp_path, capsys):
        old = tmp_path / "old.nmsl"
        old.write_text(campus_internet())
        new = tmp_path / "new.nmsl"
        new.write_text(campus_internet(noc_frequency_minutes=1.0))
        assert main([str(new), "--diff-against", str(old)]) == 1
        out = capsys.readouterr().out
        assert "changed process nocMonitor" in out
        assert "introduced:" in out

    def test_fixing_change_passes(self, tmp_path, capsys):
        old = tmp_path / "old.nmsl"
        old.write_text(campus_internet(include_noc_permission=False))
        new = tmp_path / "new.nmsl"
        new.write_text(campus_internet())
        assert main([str(new), "--diff-against", str(old)]) == 0
        out = capsys.readouterr().out
        assert "fixed:" in out

    def test_no_change(self, tmp_path, capsys):
        old = tmp_path / "old.nmsl"
        old.write_text(campus_internet())
        new = tmp_path / "new.nmsl"
        new.write_text(campus_internet())
        assert main([str(new), "--diff-against", str(old)]) == 0
        assert "no changes" in capsys.readouterr().out


class TestRollout:
    def test_clean_rollout_exits_zero(self, paper_file, capsys):
        assert main(["rollout", str(paper_file)]) == 0
        out = capsys.readouterr().out
        assert "committed" in out
        assert "romano.cs.wisc.edu" in out

    def test_json_report(self, paper_file, capsys):
        import json

        assert main(["rollout", str(paper_file), "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dead_letter"] == []
        assert set(report["elements"]) == {
            "romano.cs.wisc.edu",
            "cs.wisc.edu",
        }
        assert report["outcomes"] == {"committed": 2}

    def test_report_file_written(self, paper_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "report.json"
        assert (
            main(["rollout", str(paper_file), "--report-file", str(out_path)])
            == 0
        )
        assert json.loads(out_path.read_text())["dead_letter"] == []

    def test_wedged_element_dead_letters_and_exits_one(
        self, paper_file, capsys
    ):
        assert (
            main(
                [
                    "rollout",
                    str(paper_file),
                    "--max-attempts",
                    "2",
                    "--chaos-wedge",
                    "romano.cs.wisc.edu",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "dead letter" in out
        assert "romano.cs.wisc.edu" in out

    def test_rollout_is_deterministic_per_seed(self, paper_file, capsys):
        args = [
            "rollout",
            str(paper_file),
            "--report",
            "json",
            "--chaos-loss",
            "0.2",
            "--seed",
            "9",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_compile_failure_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.nmsl"
        bad.write_text("process broken ::= supports")
        assert main(["rollout", str(bad)]) == 2


class TestRolloutJournal:
    def test_crash_then_resume_completes_campaign(
        self, paper_file, tmp_path, capsys
    ):
        journal = tmp_path / "campaign.jsonl"
        assert (
            main(
                [
                    "rollout",
                    str(paper_file),
                    "--journal",
                    str(journal),
                    "--chaos-crash-coordinator",
                    "9",
                ]
            )
            == 2
        )
        assert "coordinator killed" in capsys.readouterr().err
        assert journal.exists()
        assert (
            main(
                ["rollout", str(paper_file), "--journal", str(journal), "--resume"]
            )
            == 0
        )
        assert "2/2 committed" in capsys.readouterr().out

    def test_resume_without_journal_is_usage_error(self, paper_file, capsys):
        assert main(["rollout", str(paper_file), "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_fresh_run_truncates_stale_journal(
        self, paper_file, tmp_path, capsys
    ):
        import json

        journal = tmp_path / "campaign.jsonl"
        for _ in range(2):
            assert (
                main(["rollout", str(paper_file), "--journal", str(journal)])
                == 0
            )
            capsys.readouterr()
        records = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line
        ]
        assert sum(1 for r in records if r["type"] == "campaign") == 1
        assert records[-1]["type"] == "end"


class TestHeal:
    def test_clean_network_converges_in_one_round(self, paper_file, capsys):
        assert (
            main(["heal", str(paper_file), "--install", "--rounds", "3"]) == 0
        )
        out = capsys.readouterr().out
        assert "converged after 1 round(s)" in out

    def test_corrupt_store_detected_and_repaired(self, paper_file, capsys):
        assert (
            main(
                [
                    "heal",
                    str(paper_file),
                    "--install",
                    "--rounds",
                    "8",
                    "--chaos-corrupt-store",
                    "romano.cs.wisc.edu:0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "digest-mismatch" in out
        assert "1 repaired" in out

    def test_unconverged_drift_exits_one(self, paper_file, capsys):
        # A permanently dead element with an absurdly patient breaker
        # stays unreachable (never quarantined) past the round budget.
        assert (
            main(
                [
                    "heal",
                    str(paper_file),
                    "--install",
                    "--rounds",
                    "2",
                    "--chaos-crash",
                    "romano.cs.wisc.edu:0",
                    "--failure-threshold",
                    "99",
                ]
            )
            == 1
        )
        assert "unreachable" in capsys.readouterr().out

    def test_json_report(self, paper_file, capsys):
        import json

        assert (
            main(
                [
                    "heal",
                    str(paper_file),
                    "--install",
                    "--rounds",
                    "3",
                    "--report",
                    "json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["rounds"]


class TestVerifyRuntime:
    @pytest.fixture
    def campus_file(self, tmp_path):
        path = tmp_path / "campus.nmsl"
        path.write_text(campus_internet())
        return path

    def test_adherent_network_exits_zero(self, campus_file, capsys):
        assert (
            main(["verify-runtime", str(campus_file), "--duration", "1800"])
            == 0
        )
        assert "adheres" in capsys.readouterr().out

    def test_misbehaving_manager_exits_one(self, campus_file, capsys):
        assert (
            main(
                [
                    "verify-runtime",
                    str(campus_file),
                    "--duration",
                    "1800",
                    "--misbehave",
                    "nocMonitor@noc-domain#1:5",
                ]
            )
            == 1
        )
        assert "VIOLATES" in capsys.readouterr().out

    def test_json_format(self, campus_file, capsys):
        import json

        assert (
            main(
                [
                    "verify-runtime",
                    str(campus_file),
                    "--duration",
                    "1800",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["adheres"] is True
        assert payload["observed_queries"] > 0

    def test_malformed_misbehave_exits_two(self, campus_file, capsys):
        assert (
            main(
                [
                    "verify-runtime",
                    str(campus_file),
                    "--misbehave",
                    "noc:fast",
                ]
            )
            == 2
        )
        assert "misbehave" in capsys.readouterr().err

    def test_compile_failure_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.nmsl"
        bad.write_text("process broken ::= supports")
        assert main(["verify-runtime", str(bad)]) == 2


class TestExtensions:
    def test_extension_file(self, tmp_path, capsys):
        ext = tmp_path / "billing.nmslx"
        ext.write_text(BILLING_EXTENSION)
        spec = tmp_path / "spec.nmsl"
        spec.write_text(
            "process p ::= supports mgmt.mib; billing 5; end process p."
        )
        assert (
            main([str(spec), "--extensions", str(ext), "--output", "acct-report"])
            == 0
        )
        assert "charge p 5" in capsys.readouterr().out


class TestKeyboardInterrupt:
    def test_ctrl_c_exits_130_without_traceback(
        self, paper_file, capsys, monkeypatch
    ):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run", interrupted)
        assert main([str(paper_file)]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err

    def test_ctrl_c_mid_rollout_flushes_journal(
        self, tmp_path, capsys, monkeypatch
    ):
        """The journal's finally-block close runs before the 130 exit."""
        from repro.rollout import journal as journal_module

        spec = tmp_path / "paper.nmsl"
        spec.write_text(PAPER_SPEC_TEXT)
        journal_path = tmp_path / "rollout.jsonl"
        closed = []
        original_close = journal_module.RolloutJournal.close

        def tracking_close(self):
            closed.append(True)
            return original_close(self)

        monkeypatch.setattr(
            journal_module.RolloutJournal, "close", tracking_close
        )

        import repro.rollout.coordinator as coordinator_module

        def interrupted_run(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            coordinator_module.RolloutCoordinator, "run", interrupted_run
        )
        code = main(
            ["rollout", str(spec), "--journal", str(journal_path)]
        )
        assert code == 130
        assert closed, "journal must be flushed on Ctrl-C"


class TestCollectorThreshold:
    """main() raises the gen-0 threshold for its own extent only."""

    @pytest.fixture
    def seen(self, monkeypatch):
        # An unusual starting point, so "restored" cannot mean "reset to
        # the interpreter default"; and a probe on the way into the work.
        before = gc.get_threshold()
        gc.set_threshold(701, 11, 12)
        inside = []
        dispatch = cli._dispatch

        def probe(argv):
            inside.append(gc.get_threshold())
            return dispatch(argv)

        monkeypatch.setattr(cli, "_dispatch", probe)
        try:
            yield inside
            assert inside == [(collector.BULK_LOAD_GEN0_THRESHOLD, 11, 12)]
            assert gc.get_threshold() == (701, 11, 12)
        finally:
            gc.set_threshold(*before)

    def test_restored_after_success(self, seen, paper_file, capsys):
        assert main([str(paper_file), "--check"]) == 0

    def test_restored_after_system_exit(self, seen, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])

    def test_restored_after_compile_error(self, seen, tmp_path, capsys):
        bad = tmp_path / "bad.nmsl"
        bad.write_text("process broken ::= supports")
        assert main([str(bad)]) == 2


class TestNotUtf8:
    """A spec or extension file that is not UTF-8 is the user's error:
    ``nmslc: error: PATH: ...`` and exit 2 from every command."""

    OFFSET = len("process p ::= ")

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.nmsl"
        path.write_bytes(b"process p ::= \xff end process p.")
        return path

    @pytest.fixture
    def bad_ext(self, tmp_path):
        path = tmp_path / "bad.nmslx"
        path.write_bytes(b"extension billing;\nkeyword \xff in process;\n")
        return path

    def _refused(self, capsys, argv, path, offset):
        assert main([str(arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nmslc: error: ")
        assert f"{path}: not UTF-8 text" in err
        assert f"offset {offset}" in err
        assert "Traceback" not in err and "UnicodeDecodeError" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("{bad}", "--check"),
            ("{bad}", "--output", "BartsSnmpd"),
            ("{bad}", "--format"),
            ("{bad}", "--list-tags"),
            ("analyze", "{bad}"),
            ("analyze", "{good}", "{bad}"),
            ("diff", "{bad}", "{good}"),
            ("diff", "{good}", "{bad}"),
            ("rollout", "{bad}"),
            ("rollout", "{good}", "--diff-base", "{bad}"),
            ("heal", "{bad}"),
            ("verify-runtime", "{bad}"),
            ("profile", "{bad}"),
            ("profile", "{good}", "--diff-against", "{bad}"),
            ("{good}", "--check", "--diff-against", "{bad}"),
        ],
        ids=lambda argv: "-".join(a.strip("{}-") for a in argv),
    )
    def test_specification(self, argv, bad, paper_file, capsys):
        argv = [a.format(bad=bad, good=paper_file) for a in argv]
        self._refused(capsys, argv, bad, self.OFFSET)

    @pytest.mark.parametrize(
        "argv",
        [
            ("{good}", "--check"),
            ("analyze", "{good}"),
            ("diff", "{good}", "{good}"),
            ("profile", "{good}"),
        ],
        ids=lambda argv: argv[0].strip("{}"),
    )
    def test_extension_file(self, argv, bad_ext, paper_file, capsys):
        argv = [a.format(good=paper_file) for a in argv]
        argv += ["--extensions", bad_ext]
        self._refused(capsys, argv, bad_ext, len("extension billing;\nkeyword "))

    def test_subprocess_prints_one_line(self, bad):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", str(bad), "--check"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            f"nmslc: error: {bad}: not UTF-8 text "
            f"(invalid byte at offset {self.OFFSET})\n"
        )
