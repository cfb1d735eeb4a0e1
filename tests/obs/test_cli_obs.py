"""The nmslc observability surface: --trace/--metrics/--clock, profile,
and the warning-routing fix (warnings belong on stderr, not stdout)."""

import json
import re

import pytest

from repro.cli import main
from repro.nmsl.generic import parse_generic
from repro.nmsl.lexer import tokenize
from repro.workloads.scenarios import campus_internet

FOREIGN_EXPORT_SPEC = """
process p ::=
    supports mgmt.mib;
    exports mgmt.mib to elsewhere.edu;
end process p.
"""


@pytest.fixture
def campus_file(tmp_path):
    path = tmp_path / "campus.nmsl"
    path.write_text(campus_internet())
    return path


class TestWarningRouting:
    def test_warnings_go_to_stderr_not_stdout(self, tmp_path, capsys):
        path = tmp_path / "foreign.nmsl"
        path.write_text(FOREIGN_EXPORT_SPEC)
        assert main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "assumed foreign" in captured.err
        assert "warning:" not in captured.out

    def test_stdout_stays_machine_consumable(self, tmp_path, capsys):
        """Piping nmslc stdout must yield only the compile summary."""
        path = tmp_path / "foreign.nmsl"
        path.write_text(FOREIGN_EXPORT_SPEC)
        main([str(path)])
        out_lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("compiled ") for line in out_lines if line)


class TestTraceAndMetricsFlags:
    def test_chrome_trace_written(self, campus_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main([str(campus_file), "--check", "--trace", str(trace)]) == 0
        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        names = {event["name"] for event in events}
        assert {
            "compile",
            "compile.pass2",
            "compile.link",
            "consistency.check",
        } <= names
        assert "compile.lex" not in names  # pass 1 lexes as it goes
        # ... and streams into pass 2: no span of its own.
        assert "compile.pass1" not in names
        (compile_span,) = (e for e in events if e["name"] == "compile")
        declarations = parse_generic(campus_file.read_text())
        assert compile_span["args"]["bytes"] == len(campus_file.read_bytes())
        assert compile_span["args"]["declarations"] == len(declarations)
        assert compile_span["args"]["clauses"] == sum(
            len(declaration.clauses) for declaration in declarations
        )
        # Plain clauses are taken whole: fewer tokens than the lexer makes.
        lexed = len(tokenize(campus_file.read_text()))
        assert 100 < compile_span["args"]["tokens"] < lexed
        for event in events:
            assert {"name", "ph", "pid", "tid", "ts"} <= set(event)
        assert "wrote chrome trace" in capsys.readouterr().err

    def test_jsonl_trace_written_for_jsonl_suffix(self, campus_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([str(campus_file), "--check", "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert {
                "name", "ts", "dur", "tid", "depth",
                "trace", "span", "parent", "args",
            } == set(event)

    def test_metrics_written_as_prometheus(self, campus_file, tmp_path):
        metrics = tmp_path / "metrics.prom"
        assert main([str(campus_file), "--check", "--metrics", str(metrics)]) == 0
        text = metrics.read_text()
        assert "# TYPE repro_compile_runs_total counter" in text
        assert "repro_compile_runs_total 1" in text
        assert re.search(
            r'repro_consistency_checks_total\{engine="indexed"\} 1', text
        )

    def test_logical_clock_traces_are_byte_identical(
        self, campus_file, tmp_path
    ):
        def run(name):
            trace = tmp_path / f"{name}.jsonl"
            metrics = tmp_path / f"{name}.prom"
            assert (
                main(
                    [
                        str(campus_file),
                        "--check",
                        "--clock",
                        "logical",
                        "--trace",
                        str(trace),
                        "--metrics",
                        str(metrics),
                    ]
                )
                == 0
            )
            return trace.read_bytes(), metrics.read_bytes()

        assert run("first") == run("second")

    def test_no_flags_leaves_null_observability(self, campus_file, capsys):
        from repro import obs

        assert main([str(campus_file), "--check"]) == 0
        assert obs.current().enabled is False

    def test_rollout_subcommand_takes_obs_flags(self, campus_file, tmp_path):
        metrics = tmp_path / "rollout.prom"
        trace = tmp_path / "rollout.json"
        assert (
            main(
                [
                    "rollout",
                    str(campus_file),
                    "--baseline-install",
                    "--metrics",
                    str(metrics),
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        text = metrics.read_text()
        assert "repro_rollout_transitions_total" in text
        assert "repro_snmp_pdus_total" in text
        names = {
            event["name"]
            for event in json.loads(trace.read_text())["traceEvents"]
        }
        assert "rollout.run" in names


class TestProfileSubcommand:
    def test_phase_breakdown_and_keyword_table(self, campus_file, capsys):
        assert main(["profile", str(campus_file)]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        # Top-level phases, with their sub-phases indented under them.
        rows = [line.split()[0] for line in out.splitlines() if "%" in line]
        assert {"compile", "compile.pass2", "consistency.check"} <= set(rows)
        assert rows.index("compile") < rows.index("compile.pass2")
        assert re.search(r"^    compile\.pass2\s", out, re.M)
        assert re.search(r"^      compile\.link\s", out, re.M)
        assert "compile.lex" not in rows and "compile.pass1" not in rows
        assert "keyword dispatch (pass 2):" in out
        assert re.search(r"process\s+3", out)

    def test_phase_total_within_5_percent_of_end_to_end(
        self, campus_file, capsys
    ):
        assert main(["profile", str(campus_file), "--output", "consistency"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"\(untraced\)\s+[\d.]+\s+([\d.]+)%", out)
        assert match, out
        assert float(match.group(1)) <= 5.0, out

    def test_diff_against_profiles_the_owner_patch(
        self, campus_file, tmp_path, capsys
    ):
        old = tmp_path / "old.nmsl"
        old.write_text(campus_internet(include_noc_permission=False))
        assert (
            main(["profile", str(campus_file), "--diff-against", str(old)])
            == 0
        )
        out = capsys.readouterr().out
        rows = [line.split()[0] for line in out.splitlines() if "%" in line]
        # One domain's exports changed: the recheck patches that owner
        # into the fact set (indented under it); only the cold check of
        # the old revision generated facts.
        assert "consistency.recheck" in rows
        assert re.search(r"^    consistency\.facts\.patch\s", out, re.M)
        assert rows.count("consistency.facts.instances") == 1

    def test_clpr_engine_reports_phases_and_keywords(self, campus_file, capsys):
        assert main(["profile", str(campus_file), "--engine", "clpr"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out and "(engine=clpr)" in out
        rows = [line.split()[0] for line in out.splitlines() if "%" in line]
        assert {"compile", "consistency.check"} <= set(rows)
        assert re.search(r"^    consistency\.solve\s", out, re.M)
        assert "keyword dispatch (pass 2):" in out
        assert re.search(r"process\s+3", out)

    def test_compile_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.nmsl"
        bad.write_text("process p ::= supports mgmt.mib.nosuch; end process p.")
        assert main(["profile", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_exports_trace_when_asked(self, campus_file, tmp_path):
        trace = tmp_path / "profile.json"
        assert main(["profile", str(campus_file), "--trace", str(trace)]) == 0
        names = {
            event["name"]
            for event in json.loads(trace.read_text())["traceEvents"]
        }
        assert "profile" in names
