"""Tests for fact generation from the typed specification."""

import pytest

from repro.clpr.program import parse_program
from repro.consistency.facts import FactGenerator
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.paper import PAPER_SPEC_TEXT


@pytest.fixture(scope="module")
def compiler():
    return NmslCompiler(CompilerOptions(register_codegen=False))


@pytest.fixture(scope="module")
def facts(compiler):
    result = compiler.compile(PAPER_SPEC_TEXT)
    return FactGenerator(result.specification, compiler.tree).generate()


class TestInstantiation:
    def test_instance_per_invocation(self, facts):
        # 2 agents (one per system) + 1 snmpaddr in the domain.
        assert len(facts.instances) == 3

    def test_instance_ids_unique(self, facts):
        ids = [instance.id for instance in facts.instances]
        assert len(set(ids)) == len(ids)

    def test_owner_kinds(self, facts):
        kinds = {instance.owner_kind for instance in facts.instances}
        assert kinds == {"system", "domain"}

    def test_agents_classified(self, facts):
        agents = facts.agents()
        assert len(agents) == 2
        assert all(agent.process_name == "snmpdReadOnly" for agent in agents)

    def test_instances_on_system(self, facts):
        found = facts.instances_on_system("romano.cs.wisc.edu")
        assert len(found) == 1

    def test_instances_of_process(self, facts):
        assert len(facts.instances_of_process("snmpaddr")) == 1


class TestContainment:
    def test_domain_contains_systems(self, facts):
        assert ("domain:wisc-cs", "system:romano.cs.wisc.edu") in facts.containment

    def test_owner_contains_instances(self, facts):
        instance_edges = [
            edge for edge in facts.containment if edge[1].startswith("instance:")
        ]
        assert len(instance_edges) == 3

    def test_transitive_closure(self, facts):
        agent = facts.instances_on_system("romano.cs.wisc.edu")[0]
        containers = facts.ancestors(f"instance:{agent.id}")
        assert "domain:wisc-cs" in containers
        assert "system:romano.cs.wisc.edu" in containers

    def test_domains_of_instance(self, facts):
        agent = facts.instances_on_system("romano.cs.wisc.edu")[0]
        assert facts.domains_of(agent) == ("wisc-cs",)
        assert facts.domains_of(f"instance:{agent.id}") == ("wisc-cs",)
        assert facts.domains_of("system:romano.cs.wisc.edu") == ("wisc-cs",)
        assert facts.domains_of("domain:wisc-cs") == ()

    def test_direct_domains(self, facts):
        agent = facts.instances_on_system("romano.cs.wisc.edu")[0]
        assert facts.direct_domains(agent) == ("wisc-cs",)
        app = facts.instances_of_process("snmpaddr")[0]
        assert facts.direct_domains(app) == ("wisc-cs",)


class TestReferencesAndPermissions:
    def test_reference_expanded_per_instance(self, facts):
        (reference,) = facts.references
        assert reference.server == "*"  # wildcard parameter
        assert reference.client_domains == ("wisc-cs",)
        assert reference.frequency.min_period == 3600

    def test_permissions_from_processes_and_domains(self, facts):
        grantors = {permission.grantor for permission in facts.permissions}
        assert "domain:wisc-cs" in grantors
        assert any(g.startswith("instance:snmpdReadOnly@") for g in grantors)

    def test_permission_details(self, facts):
        domain_perm = next(
            p for p in facts.permissions if p.grantor == "domain:wisc-cs"
        )
        assert domain_perm.grantee_domain == "public"
        assert domain_perm.frequency.min_period == 300


class TestViews:
    def test_system_view_excludes_egp(self, facts):
        view = facts.system_supports["romano.cs.wisc.edu"]
        assert view.covers_path("mgmt.mib.ip")
        assert not view.covers_path("mgmt.mib.egp")

    def test_instance_view_full_mib(self, facts):
        agent = facts.instances_on_system("romano.cs.wisc.edu")[0]
        assert facts.instance_supports[agent.id].covers_path("mgmt.mib.egp")


class TestClprText:
    def test_parses(self, facts):
        program = parse_program(facts.to_clpr_text())
        assert len(program) > 30

    def test_hierarchical_facts(self, facts):
        text = facts.to_clpr_text()
        assert "contains(domain('wisc-cs'), instance('snmpaddr@wisc-cs#" in text

    def test_data_covers_reflexive(self, facts):
        text = facts.to_clpr_text()
        assert "data_covers('mgmt.mib', 'mgmt.mib')." in text


class TestTargetClassification:
    def test_literal_targets(self, compiler):
        result = compiler.compile(
            """
process a ::= supports mgmt.mib; end process a.
system "s1" ::=
    cpu x; interface i net n type t speed 1 bps; opsys o version 1;
    supports mgmt.mib.system;
    process a;
end system "s1".
process byproc(T: Process) ::=
    queries T requests mgmt.mib.system frequency infrequent;
end process byproc.
domain d ::=
    system s1;
    process byproc(a);
    process byproc(s1);
    process byproc(10.0.0.1);
end domain d.
"""
        )
        facts = FactGenerator(result.specification, compiler.tree).generate()
        servers = sorted(reference.server for reference in facts.references)
        assert servers == ["external:10.0.0.1", "process:a", "system:s1"]
