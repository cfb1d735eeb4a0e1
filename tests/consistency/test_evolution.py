"""Tests for specification diffing and incremental re-checking."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.evolution import diff_specifications
from repro.mib.tree import Access
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.frequency import FrequencySpec
from repro.nmsl.specs import ExportSpec
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


class TestDiff:
    def test_identical_specs_empty_diff(self, compiler):
        a = compiler.compile(campus_internet()).specification
        b = compiler.compile(campus_internet()).specification
        diff = diff_specifications(a, b)
        assert diff.is_empty()
        assert diff.render() == "no changes"

    def test_changed_export_detected(self, compiler):
        a = compiler.compile(campus_internet()).specification
        b = compiler.compile(campus_internet(include_noc_permission=False)).specification
        diff = diff_specifications(a, b)
        assert diff.changed_names("domain") == {"engr-domain"}

    def test_changed_process_detected(self, compiler):
        a = compiler.compile(campus_internet()).specification
        b = compiler.compile(campus_internet(noc_frequency_minutes=1.0)).specification
        diff = diff_specifications(a, b)
        assert diff.changed_names("process") == {"nocMonitor"}

    def test_added_and_removed(self, compiler):
        from repro.workloads.scenarios import new_organization

        a = compiler.compile(campus_internet()).specification
        b = compiler.compile(campus_internet() + new_organization()).specification
        diff = diff_specifications(a, b)
        assert "newdept-domain" in diff.changed_names("domain")
        back = diff_specifications(b, a)
        assert any(entry.change == "removed" for entry in back.entries)

    def test_render_lists_entries(self, compiler):
        a = compiler.compile(campus_internet()).specification
        b = compiler.compile(campus_internet(noc_frequency_minutes=1.0)).specification
        assert "changed process nocMonitor" in diff_specifications(a, b).render()


class TestDeltaChecker:
    """The delta check: one persistent checker, ``check()`` of the first
    version, then ``recheck()`` of each next one."""

    @staticmethod
    def versions(compiler, first, *later):
        checker = ConsistencyChecker(first, compiler.tree)
        return [checker.check()] + [checker.recheck(spec) for spec in later]

    def test_first_check_is_full(self, compiler):
        spec = compiler.compile(campus_internet()).specification
        [outcome] = self.versions(compiler, spec)
        assert outcome.consistent
        assert outcome.stats["facts_expanded"] == outcome.stats[
            "facts_declarations"
        ]

    def test_unchanged_respec_reuses_everything(self, compiler):
        _, outcome = self.versions(
            compiler,
            compiler.compile(campus_internet()).specification,
            compiler.compile(campus_internet()).specification,
        )
        assert outcome.consistent
        assert outcome.stats["rechecked"] == 0
        assert outcome.stats["reused"] == outcome.stats["references"]

    def test_detects_newly_introduced_problem(self, compiler):
        _, outcome = self.versions(
            compiler,
            compiler.compile(campus_internet()).specification,
            compiler.compile(
                campus_internet(noc_frequency_minutes=1.0)
            ).specification,
        )
        assert not outcome.consistent
        assert outcome.stats["rechecked"] > 0

    def test_detects_fixed_problem(self, compiler):
        first, second = self.versions(
            compiler,
            compiler.compile(
                campus_internet(include_noc_permission=False)
            ).specification,
            compiler.compile(campus_internet()).specification,
        )
        assert not first.consistent
        assert second.consistent

    def test_partial_recheck_on_local_change(self, compiler):
        """Changing one domain's export leaves other references untouched."""
        base = SyntheticInternet(
            InternetParameters(n_domains=6, systems_per_domain=2)
        )
        # Silence one domain: only the pollers targeting it are affected.
        changed = SyntheticInternet(
            InternetParameters(n_domains=6, systems_per_domain=2, silent_domains=(3,))
        )
        _, outcome = self.versions(
            compiler, base.specification(), changed.specification()
        )
        assert not outcome.consistent
        assert 0 < outcome.stats["rechecked"] < outcome.stats["references"]
        assert outcome.stats["reused"] > 0


class TestDeltaEquivalence:
    """The delta check must agree with a from-scratch full check."""

    @settings(max_examples=12, deadline=None)
    @given(
        before_silent=st.sets(st.integers(0, 3), max_size=1).map(tuple),
        after_silent=st.sets(st.integers(0, 3), max_size=2).map(tuple),
        after_fast=st.sets(st.integers(0, 7), max_size=2).map(tuple),
    )
    def test_equivalence(self, before_silent, after_silent, after_fast):
        compiler = NmslCompiler(CompilerOptions(register_codegen=False))
        before = SyntheticInternet(
            InternetParameters(
                n_domains=4, systems_per_domain=2, silent_domains=before_silent
            )
        ).specification()
        after_params = InternetParameters(
            n_domains=4,
            systems_per_domain=2,
            silent_domains=after_silent,
            fast_pollers=after_fast,
        )
        after = SyntheticInternet(after_params).specification()

        checker = ConsistencyChecker(before, compiler.tree)
        checker.check()
        incremental = checker.recheck(after)
        full = ConsistencyChecker(after, compiler.tree).check()
        assert incremental.consistent == full.consistent
        assert len(incremental.inconsistencies) == len(full.inconsistencies)


class TestAbandonedRecheck:
    """A recheck cut short by its deadline has already patched the fact
    set; the verdicts it was going to replace are stale and must not be
    reused by whatever the caller does next."""

    @staticmethod
    def internet(silent):
        return SyntheticInternet(
            InternetParameters(
                n_domains=6, systems_per_domain=2, applications_per_domain=2,
                silent_domains=silent,
            )
        ).specification()

    def abandoned(self, compiler):
        from repro.deadline import Deadline
        from repro.errors import DeadlineExceeded

        checker = ConsistencyChecker(self.internet(()), compiler.tree)
        assert checker.check().consistent
        expired = Deadline(at_s=0, clock=lambda: 1)
        with pytest.raises(DeadlineExceeded):
            checker.recheck(self.internet((2,)), deadline=expired)
        return checker

    def test_check_after_abandoned_recheck(self, compiler):
        after = self.abandoned(compiler).check()
        fresh = ConsistencyChecker(self.internet((2,)), compiler.tree).check()
        assert not fresh.consistent
        assert after.render() == fresh.render()

    def test_recheck_after_abandoned_recheck(self, compiler):
        # The second delta touches another domain only: domain 2's
        # references are tainted by nothing in it.
        after = self.abandoned(compiler).recheck(self.internet((2, 4)))
        fresh = ConsistencyChecker(self.internet((2, 4)), compiler.tree).check()
        assert after.render() == fresh.render()
        assert len(after.inconsistencies) == 4

    # A structural delta is patched in place too (a retarget, and an
    # invocation dropped so the owner's segments change length): the
    # patch must be whole — facts, their record, instantiation verdicts —
    # before the reduction, the one step a deadline can abandon.
    @classmethod
    def restructured(cls, silent):
        from repro.nmsl.specs import ProcessInvocation

        spec = cls.internet(silent)
        first = spec.domains[SyntheticInternet.domain_name(1)]
        spec.domains[first.name] = dataclasses.replace(
            first,
            processes=(
                ProcessInvocation(
                    "poller", (SyntheticInternet.system_name(4, 1),)
                ),
            ),
        )
        return spec

    def abandoned_structural(self, compiler):
        from repro.deadline import Deadline
        from repro.errors import DeadlineExceeded

        checker = ConsistencyChecker(self.internet((4,)), compiler.tree)
        assert len(checker.check().inconsistencies) == 2
        target = self.restructured((4,))
        with pytest.raises(DeadlineExceeded):
            checker.recheck(
                target, deadline=Deadline(at_s=0, clock=lambda: 1)
            )
        # It got as far as the patch, and no further.
        assert checker.checked_facts.specification is target
        assert checker._verdict_list is None
        return checker

    def test_check_after_abandoned_structural_recheck(self, compiler):
        after = self.abandoned_structural(compiler).check()
        fresh = ConsistencyChecker(
            self.restructured((4,)), compiler.tree
        ).check()
        assert len(fresh.inconsistencies) == 3
        assert after.render() == fresh.render()
        assert (
            dataclasses.replace(after, stats={}).to_json()
            == dataclasses.replace(fresh, stats={}).to_json()
        )

    def test_recheck_after_abandoned_structural_recheck(self, compiler):
        checker = self.abandoned_structural(compiler)
        after = checker.recheck(self.restructured((2, 4)))
        assert after.stats["rechecked"] == after.stats["references"]
        fresh = ConsistencyChecker(
            self.restructured((2, 4)), compiler.tree
        ).check()
        assert after.render() == fresh.render()
