"""Tests for the Figure 4.9 relations and the reduction rule."""

import pytest

from repro.consistency.causes import explain, reference_demand
from repro.consistency.relations import (
    Permission,
    Reference,
    access_atom,
    access_from_atom,
)
from repro.mib.mib1 import build_mib1
from repro.mib.tree import Access
from repro.mib.view import MibView
from repro.nmsl.frequency import FrequencySpec


@pytest.fixture(scope="module")
def tree():
    return build_mib1()


def make_reference(tree, variables=("mgmt.mib.ip",), access=Access.READ_ONLY,
                   period=3600.0, domains=("client-dom",)):
    return Reference(
        client="instance:app@client#1",
        client_domains=domains,
        server="system:server",
        variables=variables,
        access=access,
        frequency=FrequencySpec.at_most_every(period),
    )


def make_permission(tree, variables=("mgmt.mib",), access=Access.READ_ONLY,
                    period=300.0, grantee="client-dom"):
    return Permission(
        grantor="instance:agent@server#2",
        grantor_domains=("server-dom",),
        grantee_domain=grantee,
        variables=variables,
        access=access,
        frequency=FrequencySpec.at_most_every(period),
    )


def failing(tree, reference, permission):
    """The first dimension of the rule *permission* fails *reference*
    on, or None when it covers it."""
    return explain(
        permission,
        MibView(tree, permission.variables),
        reference_demand(reference, MibView(tree, reference.variables)),
    )


class TestAccessAtoms:
    def test_atom_roundtrip(self):
        for access in Access:
            assert access_from_atom(access_atom(access)) is access


class TestReduction:
    def test_fully_covered(self, tree):
        assert failing(tree, make_reference(tree), make_permission(tree)) is None

    def test_wrong_grantee_domain(self, tree):
        assert failing(
            tree,
            make_reference(tree, domains=("other-dom",)),
            make_permission(tree),
        ) == "grantee"

    def test_public_grantee_covers_everyone(self, tree):
        assert failing(
            tree,
            make_reference(tree, domains=("anywhere",)),
            make_permission(tree, grantee="public"),
        ) is None

    def test_variables_outside_view(self, tree):
        assert failing(
            tree,
            make_reference(tree, variables=("mgmt.mib.tcp",)),
            make_permission(tree, variables=("mgmt.mib.ip",)),
        ) == "view"

    def test_access_exceeded(self, tree):
        assert failing(
            tree,
            make_reference(tree, access=Access.READ_WRITE),
            make_permission(tree, access=Access.READ_ONLY),
        ) == "access"

    def test_frequency_violated(self, tree):
        assert failing(
            tree,
            make_reference(tree, period=60.0),
            make_permission(tree, period=300.0),
        ) == "frequency"

    def test_check_order_names_first_failure(self, tree):
        """Grantee mismatch is reported even if data would also fail."""
        assert failing(
            tree,
            make_reference(tree, variables=("mgmt.mib.tcp",), domains=("x",)),
            make_permission(tree, variables=("mgmt.mib.ip",)),
        ) == "grantee"

    def test_describe_methods(self, tree):
        assert "references" in make_reference(tree).describe()
        assert "permits" in make_permission(tree).describe()
