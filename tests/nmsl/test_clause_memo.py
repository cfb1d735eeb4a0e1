"""Pass 2 parses each clause text once: the memo must be exact.

A clause whose text was seen before (in the same decltype) reuses the
first one's result, so these tests hold the reuse to what parsing every
clause afresh gives: locations, errors, and paths that become known
part-way through a build.
"""

import re

import pytest

from repro.analysis import default_registry
from repro.nmsl.compiler import compile_text
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters

EXPORT = 'exports mgmt.mib to "public" access ReadWrite frequency >= 1 seconds'
QUERY = "queries T executes mgmt.mib.system frequency >= 1 seconds"

#: Every clause kind the memo serves, each written twice or more on
#: different lines.  It draws NM101, NM202, NM301 and NM302.
REPEATED = f"""
process agent ::=
    supports mgmt.mib;
    {EXPORT};
end process agent.
process agent2 ::=
    supports mgmt.mib;
    {EXPORT};
end process agent2.
process poll(T: Process) ::=
    {QUERY};
end process poll.
process poll2(T: Process) ::=
    {QUERY};
end process poll2.
system s1 ::=
    cpu x;
    interface ie0 net n speed 9600 bps;
    process agent;
end system s1.
system s2 ::=
    cpu x;
    interface ie0 net n speed 9600 bps;
    process agent;
end system s2.
domain d1 ::=
    system s1;
    process poll(s2);
    {EXPORT};
end domain d1.
domain d2 ::=
    system s2;
    process poll(s2);
    {EXPORT};
end domain d2.
"""


def unshared(text):
    """*text* with every clause made unique without changing its tokens
    or where it starts: n extra blanks after the n-th clause's keyword."""
    count = iter(range(1, 1_000))
    return re.sub(
        r"(?m)^(    \w+) ", lambda m: m[1] + " " * (next(count) + 1), text
    )


def owned_clause_objects(specification):
    """(decltype, declaration name, object) for every object of a
    memoized clause kind that has a location."""
    for process in specification.processes.values():
        for spec in process.exports + process.queries:
            yield "process", process.name, spec
    for system in specification.systems.values():
        for spec in system.interfaces + system.processes:
            yield "system", system.name, spec
    for domain in specification.domains.values():
        for spec in domain.processes + domain.exports:
            yield "domain", domain.name, spec


def clause_objects(specification):
    return [spec for _kind, _name, spec in owned_clause_objects(specification)]


def diagnostics(text):
    compiler, result = compile_text(text, filename="f")
    report = default_registry().run(compiler.analysis_context(result))
    return [
        (d.code, d.location, d.message) for d in report.diagnostics
    ]


class TestLocations:
    def test_each_copy_carries_its_own_clause_location(self):
        compiler, result = compile_text(REPEATED, filename="f")
        clauses = {
            clause.location
            for declaration in compiler.parse(REPEATED)
            for clause in declaration.clauses
        }
        specification = result.specification
        owned = list(owned_clause_objects(specification))
        assert len(owned) == 12
        locations = [
            specification.locate(kind, name, spec.location)
            for kind, name, spec in owned
        ]
        assert len(set(locations)) == len(locations)
        assert set(locations) <= clauses
        systems = specification.systems
        assert systems["s1"].supports is systems["s2"].supports

    def test_a_copy_at_the_same_place_in_its_declaration_is_the_same_object(self):
        _compiler, result = compile_text(REPEATED, filename="f")
        processes = result.specification.processes
        systems = result.specification.systems
        assert processes["agent"].exports[0] is processes["agent2"].exports[0]
        assert systems["s1"].interfaces[0] is systems["s2"].interfaces[0]
        # poll(s2) is the second clause of d1 and of d2, the export the third.
        domains = result.specification.domains
        assert domains["d1"].processes[0] is domains["d2"].processes[0]

    def test_shared_and_unshared_compiles_agree(self):
        _compiler, shared = compile_text(REPEATED, filename="f")
        _compiler, fresh = compile_text(unshared(REPEATED), filename="f")
        assert unshared(REPEATED) != REPEATED
        shared_objects = list(clause_objects(shared.specification))
        fresh_objects = list(clause_objects(fresh.specification))
        assert shared_objects == fresh_objects

    def test_analysis_spans(self):
        found = diagnostics(REPEATED)
        assert {code for code, _where, _message in found} >= {
            "NM101", "NM202", "NM301", "NM302"
        }
        assert found == diagnostics(unshared(REPEATED))
        lines = {
            code: sorted(where.line for c, where, _m in found if c == code)
            for code in ("NM202", "NM302")
        }
        # agent2 runs nowhere, so NM202 passes over its export.
        assert lines == {"NM202": [4, 29, 34], "NM302": [11, 14]}


class TestErrorsAreNeverShared:
    def test_an_erroring_clause_reports_at_every_copy(self):
        text = "process p ::=\n" + "    supports mgmt.mib.nosuch;\n" * 3
        _compiler, result = compile_text(
            text + "end process p.", strict=False, filename="f"
        )
        assert [(e.message, e.location.line) for e in result.report.errors] == [
            ("unknown MIB path 'mgmt.mib.nosuch'", line) for line in (2, 3, 4)
        ]

    @pytest.mark.parametrize("count", [2, 5])
    def test_repeated_bad_interfaces(self, count):
        text = "".join(
            f"system s{i} ::=\n    interface ie0 speed 10 bps;\nend system s{i}.\n"
            for i in range(count)
        )
        _compiler, result = compile_text(text, strict=False, filename="f")
        assert [(e.message, e.location.line) for e in result.report.errors] == [
            ("interface 'ie0' missing 'net <network>'", 2 + 3 * i)
            for i in range(count)
        ]

    def test_a_path_becomes_known_after_its_type(self):
        _compiler, result = compile_text(
            "process a ::= supports myT; end process a.\n"
            "type myT ::= SEQUENCE of INTEGER; end type myT.\n"
            "process b ::= supports myT; end process b.\n",
            strict=False,
        )
        (error,) = result.report.errors
        assert (error.message, error.location.line) == (
            "unknown MIB path 'myT'", 1
        )
        assert result.specification.processes["b"].supports == ("myT",)

    def test_the_same_text_in_another_decltype_is_parsed_again(self):
        """``speed`` is a type name to a process and a keyword to a system."""
        _compiler, result = compile_text(
            "type speed ::= INTEGER; end type speed.\n"
            "process p ::= supports speed; end process p.\n"
            "system s ::= supports speed; end system s.\n",
            strict=False,
        )
        assert result.specification.processes["p"].supports == ("speed",)
        assert [e.message for e in result.report.errors] == [
            "unexpected 'speed' in supports clause"
        ]


def test_the_thousand_domain_text_shares_one_supports_tuple():
    internet = PaperScaleInternet(
        PaperScaleParameters(
            n_domains=1_000,
            hub_count=25,
            silent_domains=(3, 500),
            fast_pollers=(5,),
            egp_pollers=(11,),
            seed=7,
        )
    )
    _compiler, result = compile_text(internet.text(), strict=False)
    systems = result.specification.systems.values()
    assert len(systems) == 10_000
    assert len({id(system.supports) for system in systems}) == 1
