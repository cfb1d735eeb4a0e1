"""Property-based tests on consistency-model invariants.

The laws the paper's model implies:

* **permission monotonicity** — adding permissions never introduces an
  inconsistency; removing permissions never removes one;
* **frequency monotonicity** — a client slowing down never makes a
  consistent specification inconsistent;
* **umbrella neutrality** — wrapping domains in grant-nothing ancestors
  changes no verdict;
* **verdict determinism** — checking twice gives identical reports;
* **incremental exactness** — ``recheck(delta)`` equals a from-scratch
  check of the delta's specification;
* **coverage reflexivity / monotonicity** — a permission granting
  exactly what a reference requests covers it, and widening the
  permitted view to OID-prefix ancestors (moving up the containment
  closure) never loses coverage.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.causes import explain, reference_demand
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.relations import Permission, Reference
from repro.mib.tree import Access
from repro.mib.view import MibView
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.frequency import FrequencySpec
from repro.nmsl.specs import ExportSpec
from repro.workloads.generator import InternetParameters, SyntheticInternet

_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))

parameter_sets = st.builds(
    InternetParameters,
    n_domains=st.integers(2, 4),
    systems_per_domain=st.integers(1, 3),
    applications_per_domain=st.integers(1, 2),
    silent_domains=st.sets(st.integers(0, 3), max_size=2).map(tuple),
    fast_pollers=st.sets(st.integers(0, 7), max_size=2).map(tuple),
    egp_pollers=st.sets(st.integers(0, 7), max_size=1).map(tuple),
)


def check(specification):
    return ConsistencyChecker(specification, _COMPILER.tree).check()


def add_public_export_everywhere(specification):
    """Grant everything to everyone: the maximal permission set."""
    grant = ExportSpec(
        variables=("mgmt.mib",),
        to_domain="public",
        access=Access.ANY,
        frequency=FrequencySpec.unconstrained(),
    )
    for name, domain in list(specification.domains.items()):
        specification.domains[name] = dataclasses.replace(
            domain, exports=domain.exports + (grant,)
        )
    return specification


def drop_all_exports(specification):
    for name, domain in list(specification.domains.items()):
        specification.domains[name] = dataclasses.replace(domain, exports=())
    for name, process in list(specification.processes.items()):
        specification.processes[name] = dataclasses.replace(process, exports=())
    return specification


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(parameter_sets)
    def test_adding_permissions_never_hurts(self, parameters):
        internet = SyntheticInternet(parameters)
        before = check(internet.specification())
        widened = add_public_export_everywhere(internet.specification())
        after = check(widened)
        # Every problem that remains must be a support problem, not a
        # permission problem — and the count cannot grow.
        assert len(after.inconsistencies) <= len(before.inconsistencies)
        for problem in after.inconsistencies:
            assert "support" in problem.kind.value or problem.kind.value in (
                "no-server",
            ), problem.kind

    @settings(max_examples=20, deadline=None)
    @given(parameter_sets)
    def test_removing_permissions_never_helps(self, parameters):
        internet = SyntheticInternet(parameters)
        before = check(internet.specification())
        stripped = drop_all_exports(internet.specification())
        after = check(stripped)
        assert len(after.inconsistencies) >= len(before.inconsistencies)

    @settings(max_examples=15, deadline=None)
    @given(parameter_sets, st.floats(min_value=1.0, max_value=10.0))
    def test_slower_clients_never_hurt(self, parameters, factor):
        internet = SyntheticInternet(parameters)
        before = check(internet.specification())
        slowed = dataclasses.replace(
            parameters, query_period_s=parameters.query_period_s * factor
        )
        after = check(SyntheticInternet(slowed).specification())
        assert len(after.inconsistencies) <= len(before.inconsistencies)


class TestNeutrality:
    @settings(max_examples=15, deadline=None)
    @given(parameter_sets, st.integers(2, 3))
    def test_umbrellas_change_nothing(self, parameters, fanout):
        flat = SyntheticInternet(parameters).specification()
        nested = SyntheticInternet(
            dataclasses.replace(parameters, umbrella_fanout=fanout)
        ).specification()
        flat_outcome = check(flat)
        nested_outcome = check(nested)
        assert flat_outcome.consistent == nested_outcome.consistent
        assert len(flat_outcome.inconsistencies) == len(
            nested_outcome.inconsistencies
        )


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(parameter_sets)
    def test_check_is_deterministic(self, parameters):
        specification = SyntheticInternet(parameters).specification()
        first = check(specification)
        second = check(specification)
        assert first.consistent == second.consistent
        assert [p.message for p in first.inconsistencies] == [
            p.message for p in second.inconsistencies
        ]


class TestIncrementalExactness:
    """``recheck(delta)`` must equal a from-scratch check of the delta."""

    @settings(max_examples=15, deadline=None)
    @given(parameter_sets, parameter_sets)
    def test_recheck_equals_from_scratch(self, before, after):
        before_spec = SyntheticInternet(before).specification()
        after_spec = SyntheticInternet(after).specification()

        checker = ConsistencyChecker(before_spec, _COMPILER.tree)
        checker.check()
        incremental = checker.recheck(after_spec)
        scratch = check(after_spec)

        assert incremental.consistent == scratch.consistent
        assert sorted(p.message for p in incremental.inconsistencies) == (
            sorted(p.message for p in scratch.inconsistencies)
        )

    @settings(max_examples=10, deadline=None)
    @given(parameter_sets)
    def test_recheck_of_identical_spec_reuses_everything(self, parameters):
        specification = SyntheticInternet(parameters).specification()
        checker = ConsistencyChecker(specification, _COMPILER.tree)
        baseline = checker.check()
        again = checker.recheck(
            SyntheticInternet(parameters).specification()
        )
        assert again.consistent == baseline.consistent
        assert again.stats["rechecked"] == 0
        assert again.stats["reused"] == again.stats["references"]
        assert again.stats["facts_expanded"] == 0


#: Resolvable MIB paths, deepest-first: index i's OID-prefix ancestors
#: are the later entries of its chain.
_PATH_CHAINS = (
    ("mgmt.mib.ip.ipAddrTable.IpAddrEntry", "mgmt.mib.ip", "mgmt.mib"),
    ("mgmt.mib.tcp", "mgmt.mib"),
    ("mgmt.mib.system", "mgmt.mib"),
    ("mgmt.mib.interfaces", "mgmt.mib"),
)

_access_modes = st.sampled_from(
    [Access.READ_ONLY, Access.READ_WRITE, Access.ANY]
)
_frequencies = st.sampled_from(
    [
        FrequencySpec.unconstrained(),
        FrequencySpec.at_most_every(60.0),
        FrequencySpec.at_most_every(900.0),
    ]
)


def _reference(paths, access, frequency):
    return Reference(
        client="instance:client#1",
        client_domains=("engr",),
        server="system:server",
        variables=paths,
        access=access,
        frequency=frequency,
    )


def _permission(paths, access, frequency, grantee="engr"):
    return Permission(
        grantor="system:server",
        grantor_domains=("engr",),
        grantee_domain=grantee,
        variables=paths,
        access=access,
        frequency=frequency,
    )


class TestCoverageLaws:
    """Reflexivity and closure-monotonicity of the reduction rule."""

    @settings(max_examples=40, deadline=None)
    @given(
        chain=st.sampled_from(_PATH_CHAINS),
        access=_access_modes,
        frequency=_frequencies,
    )
    def test_reflexive_under_oid_prefix_identity(
        self, chain, access, frequency
    ):
        """A permission granting exactly the requested subtree, mode and
        interval covers the reference."""
        paths = (chain[0],)
        view = MibView(_COMPILER.tree, list(paths))
        failed = explain(
            _permission(paths, access, frequency),
            view,
            reference_demand(_reference(paths, access, frequency), view),
        )
        assert failed is None, failed

    @settings(max_examples=40, deadline=None)
    @given(
        chain=st.sampled_from(_PATH_CHAINS),
        ancestor_depth=st.integers(1, 2),
        access=_access_modes,
        frequency=_frequencies,
    )
    def test_monotone_under_containment_closure(
        self, chain, ancestor_depth, access, frequency
    ):
        """Widening the permitted view to an OID-prefix ancestor (a step
        up the containment closure) never loses coverage."""
        requested = (chain[0],)
        ancestor = (chain[min(ancestor_depth, len(chain) - 1)],)
        reference_view = MibView(_COMPILER.tree, list(requested))
        ancestor_view = MibView(_COMPILER.tree, list(ancestor))
        demand = reference_demand(
            _reference(requested, access, frequency), reference_view
        )
        exact = explain(
            _permission(requested, access, frequency),
            MibView(_COMPILER.tree, list(requested)),
            demand,
        )
        widened = explain(
            _permission(ancestor, access, frequency), ancestor_view, demand
        )
        assert exact is None
        assert widened is None, widened
