"""Unit tests for keyword tables, segmentation and the output registry."""

import pytest

from repro.errors import NmslSemanticError
from repro.nmsl.actions import (
    BASE_KEYWORDS,
    KeywordEntry,
    KeywordTable,
    OutputRegistry,
    Subclause,
    segment_clause,
)
from repro.nmsl.generic import parse_generic


def clause_from(text: str, decltype: str = "process"):
    """Build a GenericClause by parsing a one-clause declaration."""
    (decl,) = parse_generic(f"{decltype} x ::= {text}; end {decltype} x.")
    return decl.clauses[0]


class TestKeywordTable:
    def test_base_lookup(self):
        table = KeywordTable()
        assert table.is_keyword("exports", "process")
        assert table.is_keyword("exports", "domain")
        assert not table.is_keyword("exports", "system")
        assert not table.is_keyword("gyrates", "process")

    def test_keywords_for(self):
        table = KeywordTable()
        keywords = table.keywords_for("type")
        assert keywords == ("access",)

    def test_prepend_extends_without_breaking_base(self):
        table = KeywordTable()
        table.prepend(KeywordEntry("exports", ("system",)))
        # The prepended entry wins the lookup for its decltypes...
        assert table.is_keyword("exports", "system")
        # ...while other decltypes fall through to the base entry.
        assert table.is_keyword("exports", "process")

    def test_prepend_overrides_same_decltype(self):
        table = KeywordTable()
        table.prepend(
            KeywordEntry("exports", ("process",), starts_clause=False)
        )
        # First match wins: the extension changed the keyword's role.
        assert not table.lookup("exports", "process").starts_clause

    def test_starts_clause_flags(self):
        table = KeywordTable()
        assert table.lookup("queries", "process").starts_clause
        assert not table.lookup("requests", "process").starts_clause
        assert not table.lookup("to", "domain").starts_clause

    def test_lookup_is_the_first_match_of_a_scan_in_order(self):
        """The keyed lookup against the ordered scan it replaced, over
        the base table and after overlapping prepends."""
        table = KeywordTable()
        entries = list(BASE_KEYWORDS)
        prepends = [
            KeywordEntry("exports", ("system", "process"), starts_clause=False),
            KeywordEntry("billing", ("process", "ledger")),
            KeywordEntry("exports", ("process",)),
            KeywordEntry("billing", ("ledger",), starts_clause=False),
        ]
        for step in [None, *prepends]:
            if step is not None:
                table.prepend(step)
                entries.insert(0, step)
            keywords = {entry.keyword for entry in entries} | {"gyrates"}
            for keyword in keywords:
                for decltype in ("type", "process", "system", "domain", "ledger"):
                    scanned = next(
                        (
                            entry
                            for entry in entries
                            if entry.keyword == keyword and entry.valid_in(decltype)
                        ),
                        None,
                    )
                    assert table.lookup(keyword, decltype) is scanned


class TestSegmentation:
    def test_exports_clause(self):
        table = KeywordTable()
        clause = clause_from(
            'exports mgmt.mib to "public" access ReadOnly frequency >= 5 minutes'
        )
        subclauses = segment_clause(clause, "process", table)
        assert [s.keyword for s in subclauses] == [
            "exports",
            "to",
            "access",
            "frequency",
        ]
        assert subclauses[0].words() == ["mgmt.mib"]
        assert subclauses[3].texts() == [">=", "5", "minutes"]

    def test_interface_clause(self):
        table = KeywordTable()
        clause = clause_from(
            "interface ie0 net wisc type ethernet-csmacd speed 10000000 bps",
            decltype="system",
        )
        subclauses = segment_clause(clause, "system", table)
        assert [s.keyword for s in subclauses] == [
            "interface",
            "net",
            "type",
            "speed",
        ]

    def test_keywords_inside_parens_do_not_split(self):
        table = KeywordTable()
        table.prepend(KeywordEntry("custom", ("domain",)))
        clause = clause_from("process p(net, type)", decltype="domain")
        subclauses = segment_clause(clause, "domain", table)
        # 'net' and 'type' are system keywords; inside parentheses they are
        # arguments — and they are not domain keywords anyway, but even a
        # domain keyword would be protected by the depth tracking.
        assert [s.keyword for s in subclauses] == ["process"]

    def test_continuation_keyword_cannot_start(self):
        table = KeywordTable()
        clause = clause_from("requests mgmt.mib")
        with pytest.raises(NmslSemanticError, match="does not start"):
            segment_clause(clause, "process", table)

    def test_unknown_first_keyword(self):
        table = KeywordTable()
        clause = clause_from("cpu sparc")  # 'cpu' is a system keyword
        with pytest.raises(NmslSemanticError):
            segment_clause(clause, "process", table)


class TestOutputRegistry:
    def test_register_and_lookup(self):
        registry = OutputRegistry()
        action = lambda ctx, spec: "x"
        registry.register("t", "process", action)
        assert registry.actions("t") == {"process": action}
        assert registry.actions("other") == {}

    def test_prepend_shadows(self):
        registry = OutputRegistry()
        base = lambda ctx, spec: "base"
        override = lambda ctx, spec: "override"
        registry.register("t", "process", base)
        registry.prepend("t", "process", override)
        assert registry.actions("t") == {"process": override}

    def test_prepend_does_not_touch_other_tags(self):
        registry = OutputRegistry()
        base_a = lambda ctx, spec: "a"
        base_b = lambda ctx, spec: "b"
        registry.register("a", "process", base_a)
        registry.register("b", "process", base_b)
        registry.prepend("a", "process", lambda ctx, spec: "a2")
        assert registry.actions("b") == {"process": base_b}

    def test_tags_in_first_seen_order(self):
        registry = OutputRegistry()
        registry.register("x", "process", lambda c, s: "")
        registry.register("y", "domain", lambda c, s: "")
        registry.register("x", "domain", lambda c, s: "")
        assert registry.tags() == ("x", "y")

    def test_copy_is_independent(self):
        registry = OutputRegistry()
        registry.register("x", "process", lambda c, s: "")
        duplicate = registry.copy()
        duplicate.register("y", "process", lambda c, s: "")
        assert "y" not in registry.tags()
        assert "y" in duplicate.tags()


class TestSubclause:
    def test_words_filters_punctuation(self):
        table = KeywordTable()
        clause = clause_from("supports mgmt.mib.ip, mgmt.mib.udp")
        (subclause,) = segment_clause(clause, "process", table)
        assert subclause.words() == ["mgmt.mib.ip", "mgmt.mib.udp"]
        assert "," in subclause.texts()
