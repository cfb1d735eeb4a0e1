"""The PermissionIndex, identity-keyed caches, and incremental expansion.

Three concerns:

* the OID-prefix-bucketed index answers "which permission covers this
  reference at this server" exactly as the linear scan over the rule
  (:func:`repro.consistency.causes.covers`) would;
* the checker's fact/view caches are keyed on the declarations the
  facts were expanded from, so mutating the specification between
  checks is seen
  (regression: the seed checker cached ``_facts`` forever);
* an incremental recheck after a single-declaration delta re-expands
  strictly fewer declarations than a full check (the tentpole's
  incrementality claim, asserted here rather than only benchmarked).
"""

import dataclasses

import pytest

from repro.consistency.causes import (
    candidate_servers,
    covers,
    permissions_for_server,
    reference_demand,
)
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.index import PermissionIndex
from repro.mib.tree import Access
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.frequency import FrequencySpec
from repro.nmsl.specs import ExportSpec
from repro.workloads.generator import InternetParameters, SyntheticInternet
from repro.workloads.scenarios import campus_internet


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


def _index_for(checker):
    facts = checker.facts
    return PermissionIndex(facts, checker.view), facts


class TestPermissionIndexAgreesWithScan:
    """covering_permission == linear scan of the rule, everywhere."""

    @pytest.mark.parametrize(
        "parameters",
        [
            InternetParameters(n_domains=3, systems_per_domain=2),
            InternetParameters(
                n_domains=4,
                systems_per_domain=3,
                silent_domains=(1,),
                fast_pollers=(0, 3),
            ),
            InternetParameters(
                n_domains=4, systems_per_domain=2, egp_pollers=(2,)
            ),
        ],
        ids=["clean", "faulted", "egp"],
    )
    def test_agreement_on_synthetic_internets(self, compiler, parameters):
        spec = SyntheticInternet(parameters).specification()
        checker = ConsistencyChecker(spec, compiler.tree)
        index, facts = _index_for(checker)
        compared = 0
        for reference in facts.references:
            candidates, _existential, _data = candidate_servers(
                reference, facts
            )
            demand = reference_demand(
                reference, checker.view(reference.variables)
            )
            for server in candidates or ():
                scan_hit = None
                for permission in permissions_for_server(server, facts):
                    if covers(
                        permission, checker.view(permission.variables), demand
                    ):
                        scan_hit = permission
                        break
                indexed_hit = index.covering_permission(server, demand)
                assert (indexed_hit is not None) == (scan_hit is not None), (
                    f"index/scan disagree for {reference.describe()} "
                    f"at {server.id}"
                )
                compared += 1
        assert compared > 0

    def test_index_entries_match_scan_permission_set(self, compiler):
        spec = compiler.compile(campus_internet()).specification
        checker = ConsistencyChecker(spec, compiler.tree)
        index, facts = _index_for(checker)
        for reference in facts.references:
            candidates, _existential, _data = candidate_servers(
                reference, facts
            )
            for server in candidates or ():
                assert index.permissions_for(server) == (
                    permissions_for_server(server, facts)
                )

    def test_lazy_build_and_stats(self, compiler):
        spec = compiler.compile(campus_internet()).specification
        checker = ConsistencyChecker(spec, compiler.tree)
        index, facts = _index_for(checker)
        assert index.stats()["indexed_servers"] == 0
        reference = facts.references[0]
        candidates, _existential, _data = candidate_servers(
            reference, facts
        )
        index.covering_permission(
            candidates[0],
            reference_demand(reference, checker.view(reference.variables)),
        )
        stats = index.stats()
        assert stats["indexed_servers"] == 1


class TestFingerprintKeyedCaches:
    """Regression: spec mutation between checks must be observed."""

    def test_mutation_after_check_is_seen(self, compiler):
        spec = compiler.compile(campus_internet()).specification
        checker = ConsistencyChecker(spec, compiler.tree)
        first = checker.check()
        assert first.consistent

        # Mutate the spec the checker was built with: revoke every grant.
        for name, domain in list(spec.domains.items()):
            spec.domains[name] = dataclasses.replace(domain, exports=())
        for name, process in list(spec.processes.items()):
            spec.processes[name] = dataclasses.replace(process, exports=())

        second = checker.check()
        assert not second.consistent, (
            "stale fact cache: mutation was invisible to the next check"
        )

        # And back: re-granting restores consistency on the same checker.
        grant = ExportSpec(
            variables=("mgmt.mib",),
            to_domain="public",
            access=Access.ANY,
            frequency=FrequencySpec.unconstrained(),
        )
        for name, domain in list(spec.domains.items()):
            spec.domains[name] = dataclasses.replace(
                domain, exports=(grant,)
            )
        third = checker.check()
        assert third.consistent

    def test_unchanged_spec_reuses_fact_set(self, compiler):
        spec = compiler.compile(campus_internet()).specification
        checker = ConsistencyChecker(spec, compiler.tree)
        first_facts = checker.facts
        checker.check()
        assert checker.facts is first_facts


class TestIncrementalExpansion:
    """A single-declaration delta re-expands strictly less than a full check."""

    def test_recheck_expands_strictly_less(self, compiler):
        base = InternetParameters(n_domains=8, systems_per_domain=4)
        before = SyntheticInternet(base).specification()
        after = SyntheticInternet(
            dataclasses.replace(base, silent_domains=(3,))
        ).specification()

        checker = ConsistencyChecker(before, compiler.tree)
        cold = checker.check()
        assert cold.stats["facts_expanded"] == cold.stats["facts_declarations"]

        incremental = checker.recheck(after)
        assert incremental.stats["facts_expanded"] > 0
        assert (
            incremental.stats["facts_expanded"]
            < incremental.stats["facts_declarations"]
        ), "incremental recheck must re-expand strictly less than a full check"
        # And strictly less reduction work, too.
        assert 0 < incremental.stats["rechecked"] < incremental.stats["references"]

        # The verdict still equals a from-scratch check.
        scratch = ConsistencyChecker(after, compiler.tree).check()
        assert incremental.consistent == scratch.consistent
        assert len(incremental.inconsistencies) == len(scratch.inconsistencies)


class TestSharding:
    """--jobs shards the reduction without changing the result."""

    def test_sharded_check_equals_serial(self, compiler):
        spec = SyntheticInternet(
            InternetParameters(
                n_domains=8,
                systems_per_domain=4,
                applications_per_domain=2,
                silent_domains=(1,),
                fast_pollers=(2,),
            )
        ).specification()
        serial = ConsistencyChecker(spec, compiler.tree).check(jobs=1)
        sharded = ConsistencyChecker(spec, compiler.tree).check(jobs=4)
        assert serial.consistent == sharded.consistent
        assert [
            (p.kind, p.message, p.causes) for p in serial.inconsistencies
        ] == [(p.kind, p.message, p.causes) for p in sharded.inconsistencies]
        assert sharded.stats["jobs"] == 4
