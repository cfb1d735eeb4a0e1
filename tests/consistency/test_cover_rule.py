"""The reduction rule, written once (``causes.DIMENSIONS``).

* its three readings agree: ``covers`` ⇔ ``explain`` is None ⇔ nothing
  ``moved``, and ``explain`` is the first of ``moved``;
* widening one dimension of a grant never loses coverage;
* the index's answer is a linear ``covers`` scan's;
* an uncovered reference's kind comes from the dimension that failed,
  not from the words of its reason (a grantee failure on a domain
  named ``access-ops`` is no ``access-exceeded``);
* no other module under ``consistency/`` or ``analysis/`` spells the
  access or frequency test out again.
"""

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.causes import (
    DIMENSIONS,
    Demand,
    candidate_servers,
    covers,
    explain,
    moved,
    permissions_for_server,
    reference_demand,
)
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.index import PermissionIndex
from repro.consistency.oracles import ORACLES
from repro.consistency.relations import Permission
from repro.mib.tree import Access
from repro.mib.view import MibView
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.frequency import FrequencySpec
from repro.workloads.generator import InternetParameters, SyntheticInternet

_ROOT = Path(__file__).resolve().parents[2]
_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))
_TREE = _COMPILER.tree

_PATHS = (
    "mgmt.mib",
    "mgmt.mib.ip",
    "mgmt.mib.ip.ipAddrTable.IpAddrEntry",
    "mgmt.mib.tcp",
    "mgmt.mib.system",
    "mgmt.mib.interfaces",
)
_DOMAINS = ("campus", "noc-domain", "engr-domain", "public")
_FREQUENCIES = (
    FrequencySpec.unconstrained(),
    FrequencySpec.infrequent(),
    FrequencySpec.at_most_every(60.0),
    FrequencySpec.at_most_every(900.0),
    FrequencySpec.exactly_every(300.0),
    FrequencySpec.at_least_every(600.0),
)
_VIEWS = {}


def _view(paths):
    got = _VIEWS.get(paths)
    if got is None:
        got = _VIEWS[paths] = MibView(_TREE, list(paths))
    return got


_paths = st.sets(st.sampled_from(_PATHS), min_size=1, max_size=2).map(
    lambda paths: tuple(sorted(paths))
)
_grants = st.builds(
    lambda grantee, variables, access, frequency: Permission(
        grantor="domain:lab",
        grantor_domains=("lab",),
        grantee_domain=grantee,
        variables=variables,
        access=access,
        frequency=frequency,
    ),
    st.sampled_from(_DOMAINS),
    _paths,
    st.sampled_from(list(Access)),
    st.sampled_from(_FREQUENCIES),
)
_demands = st.builds(
    lambda domains, variables, access, frequency: Demand(
        tuple(sorted(domains)), _view(variables), access, frequency
    ),
    st.sets(st.sampled_from(_DOMAINS[:-1]), max_size=3),
    _paths,
    st.sampled_from(list(Access)),
    st.sampled_from(_FREQUENCIES),
)

#: One grant, widened on one dimension to the widest it can be.
_WIDEST = {
    "grantee": {"grantee_domain": "public"},
    "view": {"variables": ("mgmt.mib",)},
    "access": {"access": Access.ANY},
    "frequency": {"frequency": FrequencySpec.unconstrained()},
}


class TestReadings:
    def test_every_dimension_is_named_once_in_rule_order(self):
        assert [name for name, _holds in DIMENSIONS] == [
            "grantee", "view", "access", "frequency"
        ]
        assert set(_WIDEST) == {name for name, _holds in DIMENSIONS}

    @settings(max_examples=300, deadline=None)
    @given(_grants, _demands)
    def test_covers_explain_and_moved_agree(self, grant, demand):
        view = _view(grant.variables)
        failed = moved(grant, view, demand)
        assert covers(grant, view, demand) == (
            explain(grant, view, demand) is None
        ) == (not failed)
        if failed:
            assert explain(grant, view, demand) == failed[0]

    @settings(max_examples=300, deadline=None)
    @given(_grants, _demands, st.sampled_from(sorted(_WIDEST)))
    def test_widening_one_dimension_never_loses_coverage(
        self, grant, demand, dimension
    ):
        wider = dataclasses.replace(grant, **_WIDEST[dimension])
        before = moved(grant, _view(grant.variables), demand)
        after = moved(wider, _view(wider.variables), demand)
        assert dimension not in after
        assert set(after) <= set(before)
        if covers(grant, _view(grant.variables), demand):
            assert covers(wider, _view(wider.variables), demand)


_internets = st.builds(
    InternetParameters,
    n_domains=st.integers(2, 4),
    systems_per_domain=st.integers(1, 3),
    applications_per_domain=st.integers(1, 2),
    silent_domains=st.sets(st.integers(0, 3), max_size=2).map(tuple),
    fast_pollers=st.sets(st.integers(0, 7), max_size=2).map(tuple),
    egp_pollers=st.sets(st.integers(0, 7), max_size=1).map(tuple),
    umbrella_fanout=st.sampled_from([0, 2]),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=25, deadline=None)
@given(_internets)
def test_index_agrees_with_a_linear_covers_scan(parameters):
    checker = ConsistencyChecker(
        SyntheticInternet(parameters).specification(), _TREE
    )
    facts = checker.facts
    index = PermissionIndex(facts, checker.view)
    for reference in facts.references:
        demand = reference_demand(reference, checker.view(reference.variables))
        servers, _existential, _data = candidate_servers(reference, facts)
        for server in servers or ():
            scanned = any(
                covers(permission, checker.view(permission.variables), demand)
                for permission in permissions_for_server(server, facts)
            )
            found = index.covering_permission(server, demand)
            assert (found is not None) == scanned, (
                f"index/scan disagree for {reference.describe()} "
                f"at {server.id}"
            )
            if found is not None:
                assert covers(found, checker.view(found.variables), demand)


# ----------------------------------------------------------------------
# The kind and the words of a report, one failing dimension at a time.
# ----------------------------------------------------------------------
_ENGR_GRANT = (
    "    exports mgmt.mib to noc-domain\n"
    "        access ReadOnly\n"
    "        frequency >= 5 minutes;\n"
    "end domain engr-domain."
)
_AGENT_GRANT = (
    '    exports mgmt.mib.system to "public"\n'
    "        access ReadOnly\n"
    "        frequency >= 10 minutes;\n"
    "end process snmpAgent."
)


def _campus_with(grant: str):
    """campus.nmsl with engr-domain's grant replaced, and without the
    agents' own grant, so that the engr agents hold that one grant and
    a report's cause is its reason."""
    text = (_ROOT / "examples" / "campus.nmsl").read_text(encoding="utf-8")
    assert _ENGR_GRANT in text and _AGENT_GRANT in text
    text = text.replace(_ENGR_GRANT, grant).replace(
        _AGENT_GRANT, "end process snmpAgent."
    )
    return _COMPILER.compile(text).specification


def _reports(specification):
    """The checker's and the scan oracle's results, held equal."""
    checked = ConsistencyChecker(specification, _TREE).check()
    scanned = ORACLES["scan"](specification, _TREE)
    assert scanned.render() == checked.render()
    return checked


@pytest.mark.parametrize("grantee", ["access-ops", "hifrequency-ops", "ops-b"])
def test_kind_comes_from_the_failing_dimension(grantee):
    """A grant to a domain no client is in is a missing permission,
    whatever the domain is called."""
    result = _reports(
        _campus_with(_ENGR_GRANT.replace("noc-domain", grantee))
    )
    assert len(result.inconsistencies) == 2
    for problem in result.inconsistencies:
        assert problem.kind.value == "missing-permission"
        assert f"grantee domain {grantee!r} does not contain client" in (
            problem.render()
        )


@pytest.mark.parametrize(
    "old, new, kind, words",
    [
        (
            "exports mgmt.mib to",
            "exports mgmt.mib.system to",
            "missing-permission",
            "requested variables are outside the permitted view "
            "(permitted: ['mgmt.mib.system'])",
        ),
        (
            "access ReadOnly",
            "access WriteOnly",
            "access-exceeded",
            "access ReadOnly exceeds permitted WriteOnly",
        ),
        (
            "frequency >= 5 minutes",
            "frequency >= 10 minutes",
            "frequency-conflict",
            "reference frequency >= 5 minutes violates permitted "
            "frequency >= 10 minutes",
        ),
    ],
    ids=["view", "access", "frequency"],
)
def test_each_dimension_has_its_kind_and_words(old, new, kind, words):
    result = _reports(_campus_with(_ENGR_GRANT.replace(old, new)))
    assert len(result.inconsistencies) == 2
    for problem in result.inconsistencies:
        assert problem.kind.value == kind
        assert words in problem.render()


# ----------------------------------------------------------------------
# Written once.
# ----------------------------------------------------------------------
def _dimension_calls(path: Path):
    """Line numbers of ``.permits(`` / ``.covered_by(`` calls in *path*."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("permits", "covered_by")
    ]


def test_the_rule_is_written_once():
    """The access and frequency tests are called in ``causes.py`` and
    nowhere else in the consistency and analysis packages: a seventh
    spelling of the rule fails here."""
    package = _ROOT / "src" / "repro"
    rule = package / "consistency" / "causes.py"
    assert len(_dimension_calls(rule)) == 2
    elsewhere = [
        f"{path.relative_to(package)}:{line}"
        for directory in ("consistency", "analysis")
        for path in sorted((package / directory).rglob("*.py"))
        if path != rule
        for line in _dimension_calls(path)
    ]
    assert elsewhere == []
