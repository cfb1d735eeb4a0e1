"""Source-span plumbing: diagnostics and semantic errors point at the
clause that caused them, not at 1:1 or a synthesized location."""

from pathlib import Path

from repro.errors import SourceLocation
from repro.nmsl.compiler import CompilerOptions, NmslCompiler

from tests.analysis.conftest import analyze

EXAMPLES = Path(__file__).parents[2] / "examples"


def compile_lax(text):
    compiler = NmslCompiler(
        CompilerOptions(filename="fixture.nmsl", register_codegen=False)
    )
    return compiler.compile(text, strict=False)


class TestFrequencyErrorLocations:
    """Satellite bugfix: NmslSemanticError out of frequency.py carries
    the clause token's location."""

    def test_negative_period_anchored_at_value(self):
        text = (
            "process p ::=\n"
            "    supports mgmt.mib.system;\n"
            "    exports mgmt.mib.system to clients\n"
            "        access ReadOnly frequency >= -5 minutes;\n"
            "end process p.\n"
        )
        result = compile_lax(text)
        errors = [
            e for e in result.report.errors if "frequency" in str(e).lower()
        ]
        assert errors, result.report.errors
        rendered = str(errors[0])
        # The bad value sits on line 4; before the fix this rendered
        # with no position at all.
        assert "fixture.nmsl:4:" in rendered

    def test_zero_period_with_equals(self):
        text = (
            "process p ::=\n"
            "    supports mgmt.mib.system;\n"
            "    exports mgmt.mib.system to clients\n"
            "        access ReadOnly frequency = 0 seconds;\n"
            "end process p.\n"
        )
        result = compile_lax(text)
        errors = [e for e in result.report.errors if "frequency" in str(e)]
        assert errors and "fixture.nmsl:4:" in str(errors[0])


class TestPermissionLocations:
    def test_campus_export_spans(self):
        """Permissions carry the span of their ``exports`` clause, so
        NM201 findings point into the real file."""
        path = EXAMPLES / "campus.nmsl"
        compiler = NmslCompiler(
            CompilerOptions(filename=str(path), register_codegen=False)
        )
        result = compiler.compile(path.read_text(encoding="utf-8"))
        assert result.ok
        from repro.analysis import default_registry

        report = default_registry().run(
            compiler.analysis_context(result), codes=["NM201"]
        )
        assert report.diagnostics
        text_lines = path.read_text(encoding="utf-8").splitlines()
        for diagnostic in report.diagnostics:
            assert diagnostic.location.filename == str(path)
            line = text_lines[diagnostic.location.line - 1]
            assert "exports" in line, (diagnostic.render(), line)

    def test_reference_locations_threaded(self):
        result = compile_lax(
            "process watcher(T: Process) ::=\n"
            "    queries T requests mgmt.mib.ip frequency >= 10 minutes;\n"
            "end process watcher.\n"
        )
        process = result.specification.processes["watcher"]
        (query,) = process.queries
        # Kept relative to the declaration, read back in the file.
        assert query.location == SourceLocation("", 1, 5)
        where = result.specification.locate("process", "watcher", query.location)
        assert where == SourceLocation("fixture.nmsl", 2, 5)


class TestDiagnosticSpansNotDefault:
    def test_no_finding_at_origin(self):
        report = analyze(
            "process ghost ::= supports mgmt.mib.udp; end process ghost.",
            codes=["NM101"],
        )
        (diagnostic,) = report.diagnostics
        assert (diagnostic.location.line, diagnostic.location.column) != (0, 0)
        assert diagnostic.location.filename == "fixture.nmsl"
