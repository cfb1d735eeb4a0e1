"""Tests for the extension language (paper Section 6.3)."""

import pytest

from repro.errors import ExtensionError, NmslSemanticError
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.extension import Extension, ExtensionAction, parse_extension
from repro.nmsl.actions import KeywordEntry
from tests.corpus import BILLING_EXTENSION, SPEC_WITH_BILLING


class TestParseExtension:
    def test_name(self):
        extension = parse_extension(BILLING_EXTENSION)
        assert extension.name == "billing"

    def test_keyword_entries(self):
        extension = parse_extension(BILLING_EXTENSION)
        (entry,) = extension.keywords
        assert entry.keyword == "billing"
        assert entry.decltypes == ("process", "domain")
        assert entry.starts_clause

    def test_continuation_keyword(self):
        extension = parse_extension(
            "extension x; keyword rate in process continues;"
        )
        assert not extension.keywords[0].starts_clause

    def test_decltype_statement(self):
        extension = parse_extension("extension x; decltype organization;")
        assert extension.decltypes == ("organization",)

    def test_actions(self):
        extension = parse_extension(BILLING_EXTENSION)
        tags = {action.tag for action in extension.actions}
        assert tags == {"consistency", "acct-report"}

    def test_decl_level_action(self):
        extension = parse_extension(
            'extension x; output t for process emit "# {name}";'
        )
        (action,) = extension.actions
        assert action.keyword is None

    def test_missing_name(self):
        with pytest.raises(ExtensionError, match="must begin"):
            parse_extension("keyword k in process;")

    def test_malformed_keyword(self):
        with pytest.raises(ExtensionError):
            parse_extension("extension x; keyword nope;")

    def test_unquoted_template(self):
        with pytest.raises(ExtensionError, match="double-quoted"):
            parse_extension("extension x; output t for process.k emit bare;")

    def test_unterminated_statement(self):
        with pytest.raises(ExtensionError, match="not terminated"):
            parse_extension("extension x; keyword k in process")

    def test_unknown_statement(self):
        with pytest.raises(ExtensionError, match="unknown"):
            parse_extension("extension x; frobnicate y;")

    def test_comments_ignored(self):
        extension = parse_extension(
            "-- header\nextension x; -- trailing\nkeyword k in domain;"
        )
        assert extension.keywords[0].keyword == "k"


class TestExtensionActionObject:
    def test_template_renderer(self):
        action = ExtensionAction(
            tag="t", decltype="process", keyword="k", template="{name}: {arg0}"
        )
        assert action.renderer()("p", ("5",)) == "p: 5"

    def test_callable_renderer(self):
        action = ExtensionAction(
            tag="t",
            decltype="process",
            keyword="k",
            render=lambda name, args: f"<{name}>",
        )
        assert action.renderer()("p", ()) == "<p>"

    def test_needs_exactly_one_body(self):
        with pytest.raises(ExtensionError):
            ExtensionAction(tag="t", decltype="process")
        with pytest.raises(ExtensionError):
            ExtensionAction(
                tag="t",
                decltype="process",
                template="x",
                render=lambda n, a: "",
            )

    def test_missing_arg_renders_empty(self):
        action = ExtensionAction(
            tag="t", decltype="process", keyword="k", template="[{arg3}]"
        )
        assert action.renderer()("p", ()) == "[]"


class TestExtendedCompilation:
    def make_compiler(self):
        return NmslCompiler(
            CompilerOptions(
                extensions=(parse_extension(BILLING_EXTENSION),),
                register_codegen=False,
            )
        )

    def test_extended_keyword_accepted(self):
        compiler = self.make_compiler()
        result = compiler.compile(SPEC_WITH_BILLING)
        stored = result.specification.extension_clauses[("process", "meteredAgent")]
        assert stored == [("billing", ("12",))]

    def test_without_extension_rejected(self):
        compiler = NmslCompiler(CompilerOptions(register_codegen=False))
        with pytest.raises(NmslSemanticError, match="billing"):
            compiler.compile(SPEC_WITH_BILLING)

    def test_extension_output_tag(self):
        compiler = self.make_compiler()
        result = compiler.compile(SPEC_WITH_BILLING)
        bundle = compiler.generate("acct-report", result)
        assert "charge meteredAgent 12 cents per query" in bundle.text()

    def test_extension_adds_to_consistency_output(self):
        compiler = self.make_compiler()
        result = compiler.compile(SPEC_WITH_BILLING)
        bundle = compiler.generate("consistency", result)
        assert "billing_rate(meteredAgent, 12)." in bundle.text()
        # basic consistency facts are still present (not overridden)
        assert "proc_supports(meteredAgent," in bundle.text()

    def test_extension_decltype(self):
        extension = parse_extension(
            "extension org; decltype organization;\n"
            'output consistency for organization emit "org({name}).";'
        )
        compiler = NmslCompiler(
            CompilerOptions(extensions=(extension,), register_codegen=False)
        )
        result = compiler.compile(
            "organization acme ::= anything goes; end organization acme."
        )
        assert "organization" in result.specification.extras
        bundle = compiler.generate("consistency", result)
        assert "org(acme)." in bundle.text()

    def test_override_basic_output_action(self):
        """Prepending an action for an existing (tag, decltype) overrides it."""
        override = Extension(
            name="override",
            actions=(
                ExtensionAction(
                    tag="consistency",
                    decltype="type",
                    template="shadowed({name}).",
                ),
            ),
        )
        compiler = NmslCompiler(
            CompilerOptions(extensions=(override,), register_codegen=False)
        )
        result = compiler.compile(
            "type Foo ::= INTEGER; access ReadOnly; end type Foo."
        )
        text = compiler.generate("consistency", result).text()
        assert "shadowed(Foo)." in text
        assert "nm_type" not in text

    def test_override_is_per_tag_only(self):
        """The paper's DavesSnmpd example: overriding one tag does not
        disturb the generic action or other tags."""
        daves = Extension(
            name="daves",
            keywords=(KeywordEntry("queries", ("process",)),),
            actions=(
                ExtensionAction(
                    tag="DavesSnmpd",
                    decltype="process",
                    template="# daves config for {name}",
                ),
            ),
        )
        compiler = NmslCompiler(
            CompilerOptions(extensions=(daves,), register_codegen=False)
        )
        result = compiler.compile(
            "process p(T: Process) ::= queries T requests mgmt.mib "
            "frequency infrequent; end process p."
        )
        # generic action still built the typed query spec
        assert result.specification.processes["p"].queries
        # the new tag renders
        assert "# daves config for p" in compiler.generate("DavesSnmpd", result).text()
        # the consistency tag still renders the basic facts
        assert "proc_query(p," in compiler.generate("consistency", result).text()
