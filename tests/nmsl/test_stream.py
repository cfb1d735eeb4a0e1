"""Pass 1 streams into pass 2, and a compile keeps nothing of pass 1.

``NmslCompiler.compile`` feeds ``GenericParser.iter_declarations()`` to
``SpecificationBuilder.build``: each declaration is built as it is read,
and the result keeps only the order of the declarations.  These tests
hold the interleaving, the error precedence of the old two-pass run,
the generated output (against the old walk over pass 1's declarations,
kept here as the reference) and what a compile leaves reachable.
"""

import gc
import random
from types import FunctionType, ModuleType

import pytest

from repro.errors import NmslSemanticError, NmslSyntaxError
from repro.nmsl.compiler import (
    CompilerOptions,
    NmslCompiler,
    OutputUnit,
    generation,
)
from repro.nmsl.extension import parse_extension
from repro.nmsl.generic import Declaration, GenericClause, GenericParser
from repro.nmsl.lexer import NmslToken, SourceMap
from repro.nmsl.outputs import EPILOGUE
from repro.nmsl.semantics import SpecificationBuilder
from repro.workloads.generator import InternetParameters, SyntheticInternet
from tests.corpus import BILLING_EXTENSION, billed_campus
from tests.corpus import _campus as campus

PASS1 = (NmslToken, GenericClause, Declaration, SourceMap, GenericParser)

SEMANTIC_ERROR = "process p ::= supports mgmt.mib.nosuch; end process p.\n"

ORGANIZATION = parse_extension(
    "extension org; decltype organization;\n"
    'output consistency for organization emit "org({name}).";\n'
    'output BartsSnmpd for organization emit "# organization {name}";'
)


def _fifty_domains() -> str:
    return SyntheticInternet(
        InternetParameters(n_domains=50, systems_per_domain=3)
    ).text()


# ----------------------------------------------------------------------
# The stream.
# ----------------------------------------------------------------------
def test_pass_2_builds_each_declaration_before_pass_1_reads_the_next(
    monkeypatch,
):
    events = []
    read = GenericParser.parse_declaration
    build = SpecificationBuilder._build_declaration

    def reading(parser):
        declaration = read(parser)
        events.append(("read", declaration.name))
        return declaration

    def building(builder, declaration):
        events.append(("build", declaration.name))
        return build(builder, declaration)

    monkeypatch.setattr(GenericParser, "parse_declaration", reading)
    monkeypatch.setattr(SpecificationBuilder, "_build_declaration", building)
    result = NmslCompiler().compile(campus())
    names = [name for _decltype, name in result.order]
    assert len(names) == 12
    assert events == [
        (step, name) for name in names for step in ("read", "build")
    ]


def test_a_syntax_error_after_a_semantic_error_still_wins():
    text = SEMANTIC_ERROR + "process broken ::= supports"
    for strict in (True, False):
        with pytest.raises(NmslSyntaxError, match="not terminated"):
            NmslCompiler().compile(text, strict=strict)


def test_a_lexical_error_after_a_syntax_error_still_wins():
    text = (
        SEMANTIC_ERROR
        + "process q ::= supports mgmt.mib;; end process q.\n"
        + "process x ::= supports @; end process x.\n"
    )
    with pytest.raises(NmslSyntaxError, match="unexpected character '@'"):
        NmslCompiler().compile(text)


def test_lax_still_reports_pass_2_errors(tmp_path, capsys):
    from repro.cli import main

    result = NmslCompiler().compile(SEMANTIC_ERROR + campus(), strict=False)
    assert not result.ok and "nosuch" in str(result.report.errors[0])
    with pytest.raises(NmslSemanticError, match="nosuch"):
        NmslCompiler().compile(SEMANTIC_ERROR + campus())
    spec = tmp_path / "semantic.nmsl"
    spec.write_text(SEMANTIC_ERROR)
    assert main([str(spec), "--lax"]) == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Output: the same units as the old walk over pass 1's declarations.
# ----------------------------------------------------------------------
def reference_units(compiler, text, result, tag):
    """The units of *tag* as ``generate()`` made them while a compile
    kept pass 1's declarations: walk them, hand a declaration of an
    extension decltype over raw."""
    specification = result.specification
    tables = {
        "type": specification.types,
        "process": specification.processes,
        "system": specification.systems,
        "domain": specification.domains,
    }
    units = []
    with generation(
        tag, specification, compiler.registry, compiler.clause_actions,
        tree=compiler.tree,
    ) as run:
        for declaration in compiler.parse(text):
            table = tables.get(declaration.decltype)
            spec = declaration if table is None else table.get(declaration.name)
            unit = run.unit(declaration.decltype, declaration.name, spec)
            if unit is not None:
                units.append(
                    OutputUnit(declaration.name, declaration.decltype, unit)
                )
        epilogue = run.actions.get(EPILOGUE)
        if epilogue is not None:
            chunk = epilogue(run.context, specification)
            if chunk:
                units.append(OutputUnit("", EPILOGUE, chunk))
    return units


def _interleaved() -> str:
    """A 6-domain text with its declarations shuffled across kinds."""
    parameters = InternetParameters(n_domains=6, systems_per_domain=2)
    chunks = list(SyntheticInternet(parameters).iter_text())
    random.Random(11).shuffle(chunks)
    return "\n".join(chunks)


def _organizations() -> str:
    """The campus example among declarations of an extension decltype,
    one name declared twice."""
    return (
        "organization acme ::= anything goes; end organization acme.\n"
        + campus()
        + "organization zeta ::= more; end organization zeta.\n"
        + "organization acme ::= again; end organization acme.\n"
    )


CASES = {
    "interleaved": ((), _interleaved),
    "extension-decltype": ((ORGANIZATION,), _organizations),
    "extension-clause": ((parse_extension(BILLING_EXTENSION),), billed_campus),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("tag", ["BartsSnmpd", "consistency", "acl-table"])
def test_generate_matches_the_walk_over_pass_1(case, tag):
    extensions, make = CASES[case]
    text = make()
    compiler = NmslCompiler(CompilerOptions(extensions=extensions))
    result = compiler.compile(text, strict=False)
    decltypes = [declaration.decltype for declaration in compiler.parse(text)]
    if case == "interleaved":
        assert decltypes != sorted(decltypes, key=decltypes.index)
    bundle = compiler.generate(tag, result)
    assert bundle.units == reference_units(compiler, text, result, tag)
    assert bundle.text() == "\n".join(
        unit.text for unit in bundle.units if unit.text
    ) + "\n"


@pytest.mark.parametrize("text", [_interleaved(), ""],
                         ids=["interleaved", "empty"])
def test_nmslc_output_is_the_bundle_text(text, tmp_path, capsys):
    """``nmslc --output`` writes units as they come; the bytes are the
    bundle's, down to the lone newline of a bundle with no unit."""
    from repro.cli import main

    spec = tmp_path / "spec.nmsl"
    spec.write_text(text)
    compiler = NmslCompiler()
    result = compiler.compile(text, strict=False)
    for tag in ("BartsSnmpd", "consistency", "osi"):
        main([str(spec), "--lax", "--output", tag])
        out = capsys.readouterr().out
        assert out.split("\n", 1)[1] == compiler.generate(tag, result).text()


# ----------------------------------------------------------------------
# Retention.
# ----------------------------------------------------------------------
def pass1_objects(root, skip=()):
    """The pass-1 objects reachable from *root* by ``gc.get_referents``,
    not through *skip*; classes, modules and function globals are not
    followed (closures and defaults are)."""
    seen = {id(obj) for obj in skip}
    stack, found = [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, PASS1):
            found.append(obj)
        if isinstance(obj, FunctionType):
            stack.extend(obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
            stack.extend((obj.__kwdefaults__ or {}).values())
            continue
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize(
    "extensions, make",
    [((), campus), ((), _fifty_domains), ((ORGANIZATION,), _organizations)],
    ids=["campus", "fifty-domains", "extension-decltype"],
)
def test_a_compile_result_keeps_nothing_of_pass_1(extensions, make):
    compiler = NmslCompiler(CompilerOptions(extensions=extensions))
    result = compiler.compile(make(), strict=False)
    extras = result.specification.extras
    assert pass1_objects(result, skip=[extras]) == []
    # Declarations of an extension decltype are kept raw, by design.
    assert bool(pass1_objects(result)) == bool(extras) == bool(extensions)
    assert pass1_objects(compiler) == []


@pytest.mark.parametrize("make", [campus, _fifty_domains],
                         ids=["campus", "fifty-domains"])
def test_a_spec_session_keeps_nothing_of_pass_1(make):
    from repro.service.handlers import SpecSession

    session = SpecSession("spec.nmsl", make(), "0" * 64)
    extras = session.result.specification.extras
    assert pass1_objects(session, skip=[extras]) == []
    session.checker.check()  # the warm state too
    assert pass1_objects(session, skip=[extras]) == []
