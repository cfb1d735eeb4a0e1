"""The relational impact analyzer against its brute-force definition.

Two families of guarantees:

* **identity** — diffing a revision against itself yields an empty
  impact set, over the same seeded 50-spec corpus the differential
  oracle uses (an analyzer that invents impact out of a no-op delta
  would make every rollout gate cry wolf);
* **equivalence** — on random single-edit deltas, the verdict flips the
  incremental analyzer reports equal the flips obtained by two fresh
  full checks of A and B (Hypothesis property; the impact set must be a
  *view* of the semantics, never an approximation of it).
"""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.impact import (
    ImpactAnalyzer,
    _flip_kind,
    _verdict_signature,
    grantor_permission_changes,
    impacted_elements,
)
from repro.consistency.evolution import diff_specifications
from repro.consistency.relations import Permission
from repro.mib.tree import Access
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.frequency import FrequencySpec
from repro.nmsl.specs import Table
from repro.workloads.generator import InternetParameters, SyntheticInternet
from tests.corpus import CORPUS_SIZE, corpus, draw_parameters

_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))
TREE = _COMPILER.tree


# ----------------------------------------------------------------------
# Single-edit delta constructors over compiled specifications.
# ----------------------------------------------------------------------
def _replace_domain(spec, name, domain):
    domains = Table(spec.domains)
    domains[name] = domain
    return dataclasses.replace(spec, domains=domains)


def _edit_exports(spec, name, edit):
    domain = spec.domains[name]
    return _replace_domain(
        spec,
        name,
        dataclasses.replace(
            domain,
            exports=tuple(edit(export) for export in domain.exports),
        ),
    )


def _drop_exports(spec, name):
    return _replace_domain(
        spec, name, dataclasses.replace(spec.domains[name], exports=())
    )


def _widen_access(spec, name):
    return _edit_exports(
        spec,
        name,
        lambda export: dataclasses.replace(export, access=Access.READ_WRITE),
    )


def _loosen_frequency(spec, name):
    return _edit_exports(
        spec,
        name,
        lambda export: dataclasses.replace(
            export, frequency=FrequencySpec.unconstrained()
        ),
    )


def _tighten_frequency(spec, name):
    def edit(export):
        floor = max(export.frequency.min_period, 1.0)
        return dataclasses.replace(
            export, frequency=FrequencySpec.at_most_every(floor * 4)
        )

    return _edit_exports(spec, name, edit)


EDITS = {
    "drop": _drop_exports,
    "widen": _widen_access,
    "loosen": _loosen_frequency,
    "tighten": _tighten_frequency,
}


def _pick_domain(spec, position):
    names = sorted(spec.domains)
    return names[position % len(names)]


def _problems_by_reference(spec):
    """A fresh full check's problems, grouped by the reference they name."""
    grouped = {}
    for problem in ConsistencyChecker(spec, TREE).check().inconsistencies:
        if problem.reference is not None:
            key = ConsistencyChecker._reference_key(problem.reference)
            grouped[key] = grouped.get(key, ()) + (problem,)
    return grouped


def _brute_force_flips(spec_a, spec_b):
    """Verdict flips by definition: two fresh full checks, keyed align
    (a reference without problems and a reference that is not there
    read the same: nothing to report)."""
    old = _problems_by_reference(spec_a)
    new = _problems_by_reference(spec_b)
    flips = {}
    for reference_key, new_problems in new.items():
        old_problems = old.get(reference_key, ())
        if _verdict_signature(old_problems) != _verdict_signature(
            new_problems
        ):
            flips[reference_key] = _flip_kind(old_problems, new_problems)
    for reference_key, old_problems in old.items():
        if reference_key not in new and old_problems:
            flips[reference_key] = "fixed"
    return flips


# ----------------------------------------------------------------------
# Identity: self-diff over the corpus is empty.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "parameters",
    corpus(),
    ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)],
)
def test_self_diff_is_empty(parameters):
    specification = SyntheticInternet(parameters).specification()
    analyzer = ImpactAnalyzer(TREE)
    analyzer.baseline(specification)
    impact = analyzer.analyze(specification)
    assert impact.is_empty(), (
        f"self-diff invented impact on {parameters!r}: "
        f"{impact.verdict_flips} {impact.permission_changes} "
        f"{impact.config_changes} {impact.orphaned}"
    )
    assert impact.stats["diff_entries"] == 0
    assert not impact.impacted_elements
    assert not impact.redrive_elements()


# ----------------------------------------------------------------------
# Equivalence: incremental flips == brute-force flips (Hypothesis).
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    edit=st.sampled_from(sorted(EDITS)),
    position=st.integers(min_value=0, max_value=7),
)
def test_flips_equal_brute_force(seed, edit, position):
    parameters = draw_parameters(random.Random(seed))
    spec_a = SyntheticInternet(parameters).specification()
    name = _pick_domain(spec_a, position)
    spec_b = EDITS[edit](spec_a, name)

    analyzer = ImpactAnalyzer(TREE, tags=())  # skip codegen: flips only
    analyzer.baseline(spec_a)
    impact = analyzer.analyze(spec_b)

    key = ConsistencyChecker._reference_key
    incremental = {
        key(flip.reference): flip.kind for flip in impact.verdict_flips
    }
    assert incremental == _brute_force_flips(spec_a, spec_b)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    position=st.integers(min_value=0, max_value=7),
)
def test_widening_edit_is_reported_widened(seed, position):
    parameters = draw_parameters(random.Random(seed))
    spec_a = SyntheticInternet(parameters).specification()
    name = _pick_domain(spec_a, position)
    spec_b = _widen_access(spec_a, name)

    analyzer = ImpactAnalyzer(TREE, tags=())
    analyzer.baseline(spec_a)
    impact = analyzer.analyze(spec_b)

    readonly_exports = [
        export
        for export in spec_a.domains[name].exports
        if export.access is not Access.READ_WRITE
    ]
    widened = impact.widened()
    if readonly_exports:
        assert widened, f"ReadOnly->ReadWrite on {name} not flagged"
        for change in widened:
            assert change.grantor == f"domain:{name}"
            assert "access" in change.dimensions
    else:
        assert not widened  # nothing to widen => nothing invented
    # A pure widening never tightens any frequency budget.
    assert not any(
        change.kind == "tightened" and "frequency" in change.dimensions
        for change in impact.permission_changes
    )


# ----------------------------------------------------------------------
# The grant-coverage algebra on hand-built permissions.
# ----------------------------------------------------------------------
def _grant(access=Access.READ_ONLY, seconds=300.0, grantee="noc",
           variables=("mgmt.mib",)):
    return Permission(
        grantor="domain:lab",
        grantor_domains=("lab",),
        grantee_domain=grantee,
        variables=variables,
        access=access,
        frequency=FrequencySpec.at_most_every(seconds),
    )


class TestGrantAlgebra:
    """Grantees are read in campus.nmsl, where ``campus`` contains
    ``noc-domain``; the other names are domains of nothing."""

    checker = ConsistencyChecker(
        _COMPILER.compile(
            (
                Path(__file__).resolve().parents[2] / "examples"
                / "campus.nmsl"
            ).read_text(encoding="utf-8")
        ).specification,
        TREE,
    )

    def changes(self, old_grants, new_grants):
        return grantor_permission_changes(
            "domain:lab",
            old_grants,
            new_grants,
            self.checker.view,
            self.checker.facts,
        )

    def test_identical_grants_cancel(self):
        grants = [_grant(), _grant(seconds=60.0)]
        assert self.changes(grants, list(grants)) == []

    def test_access_raise_is_widened(self):
        changes = self.changes(
            [_grant()],
            [_grant(access=Access.READ_WRITE)],
        )
        widened = [c for c in changes if c.kind == "widened"]
        assert len(widened) == 1
        assert widened[0].dimensions == ("access",)
        # The dropped ReadOnly grant is covered by ReadWrite: benign.
        assert {c.kind for c in changes} == {"widened", "removed"}

    def test_frequency_tightening_is_flagged(self):
        changes = self.changes(
            [_grant(seconds=300.0)],
            [_grant(seconds=1200.0)],
        )
        tightened = [c for c in changes if c.kind == "tightened"]
        assert len(tightened) == 1
        assert "frequency" in tightened[0].dimensions
        # ...and the new, stricter budget is itself a new grant the old
        # one covered, so it reads as "added", not "widened".
        assert not [c for c in changes if c.kind == "widened"]

    def tightening(self, old, new):
        (change,) = [
            c for c in self.changes([old], [new]) if c.kind == "tightened"
        ]
        assert (change.old, change.new) == (old, new)
        return change.dimensions, change.reasons

    def test_frequency_tightening_is_worded_old_to_new(self):
        assert self.tightening(_grant(seconds=300.0), _grant(seconds=1200.0)) == (
            ("frequency",),
            (
                "frequency tightened from frequency >= 300 seconds "
                "to frequency >= 1200 seconds",
            ),
        )

    def test_access_lowering_is_worded_old_to_new(self):
        assert self.tightening(
            _grant(access=Access.READ_WRITE), _grant(access=Access.READ_ONLY)
        ) == (
            ("access",),
            ("access lowered from ReadWrite to ReadOnly",),
        )

    def test_view_shrinking_is_worded_old_to_new(self):
        assert self.tightening(
            _grant(variables=("mgmt.mib",)),
            _grant(variables=("mgmt.mib.system",)),
        ) == (
            ("view",),
            ("granted view shrank from mgmt.mib (now mgmt.mib.system)",),
        )

    def test_public_grant_covers_any_grantee(self):
        changes = self.changes(
            [_grant(grantee="public")],
            [_grant(grantee="public"), _grant(grantee="engr")],
        )
        assert {c.kind for c in changes} == {"added"}

    def test_grant_to_a_contained_domain_is_added(self):
        """A B-side grant to a domain an A-side grantee contains admits
        no client the A-side grant did not (``campus`` contains
        ``noc-domain``); the other way round is a widening, on the
        grantee alone."""
        parent, child = _grant(grantee="campus"), _grant(grantee="noc-domain")
        changes = self.changes([parent], [parent, child])
        assert [(c.kind, c.reasons) for c in changes] == [
            ("added", ("already covered by an A-side grant",))
        ]
        changes = self.changes([child], [child, parent])
        assert [(c.kind, c.dimensions) for c in changes] == [
            ("widened", ("grantee",))
        ]

    def test_new_grantee_is_widened(self):
        changes = self.changes(
            [_grant(grantee="noc")],
            [_grant(grantee="noc"), _grant(grantee="engr")],
        )
        widened = [c for c in changes if c.kind == "widened"]
        assert len(widened) == 1
        assert "grantee" in widened[0].dimensions


# ----------------------------------------------------------------------
# Impacted-element closure.
# ----------------------------------------------------------------------
def test_impacted_elements_follow_subdomain_closure():
    text = """
process agent ::= supports mgmt.mib.system; end process agent.
system "a.example" ::=
    cpu sparc;
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports mgmt.mib.system;
    process agent;
end system "a.example".
system "b.example" ::=
    cpu sparc;
    interface ie0 net lan type ethernet-csmacd speed 10000000 bps;
    opsys SunOS version 4.0.1;
    supports mgmt.mib.system;
    process agent;
end system "b.example".
domain inner ::= system b.example; end domain inner.
domain outer ::=
    system a.example;
    domain inner;
    exports mgmt.mib.system to "public"
        access ReadOnly frequency >= 5 minutes;
end domain outer.
"""
    spec_a = _COMPILER.compile(text).specification
    spec_b = _drop_exports(spec_a, "outer")
    diff = diff_specifications(spec_a, spec_b)
    impacted = impacted_elements(diff, spec_a, spec_b)
    # Editing "outer" taints its member system AND inner's, transitively.
    assert impacted == {"a.example", "b.example"}


def test_orphaned_elements_are_reported():
    parameters = InternetParameters(
        n_domains=2, systems_per_domain=2, seed=7
    )
    spec_a = SyntheticInternet(parameters).specification()
    victim = sorted(spec_a.systems)[0]
    systems = {
        name: system
        for name, system in spec_a.systems.items()
        if name != victim
    }
    domains = {
        name: dataclasses.replace(
            domain,
            systems=tuple(s for s in domain.systems if s != victim),
        )
        for name, domain in spec_a.domains.items()
    }
    spec_b = dataclasses.replace(spec_a, systems=systems, domains=domains)

    analyzer = ImpactAnalyzer(TREE)
    analyzer.baseline(spec_a)
    impact = analyzer.analyze(spec_b)
    assert victim in impact.orphaned
    # An orphan has no B-side configuration, so it is not a redrive.
    assert victim not in impact.redrive_elements()


def test_chained_analyze_diffs_against_last_revision():
    parameters = InternetParameters(
        n_domains=3, systems_per_domain=2, seed=11
    )
    spec_a = SyntheticInternet(parameters).specification()
    name = _pick_domain(spec_a, 1)
    spec_b = _widen_access(spec_a, name)

    analyzer = ImpactAnalyzer(TREE, tags=())
    analyzer.baseline(spec_a)
    first = analyzer.analyze(spec_b)
    assert first.widened() or not spec_a.domains[name].exports
    # Analyzing B again now diffs B against B: empty.
    second = analyzer.analyze(spec_b)
    assert second.is_empty()
