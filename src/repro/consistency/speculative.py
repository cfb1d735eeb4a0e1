"""Speculative uses of the Consistency Checker (paper Section 4.2).

Two modes:

* **what-if** — "a network administrator is about to connect a new
  organization to the internet ... the administrator can make a
  specification of the new organization's expected interactions with the
  existing parts of the internet [and test it] with the existing internet
  specifications."  :class:`SpeculativeChecker` merges a candidate
  specification with the existing one, re-checks, and reports only the
  problems that involve the new parts.

* **reverse** — "make the consistency of the combined specification a
  premise of the proof, and ask CLP(R) to solve for the parameters to the
  references and permissions of the new specification that satisfy this
  premise."  :func:`solve_for_frequency` asks the CLP(R) engine the
  ``ok/5`` goal with the period left free and returns the residual
  bounds on it (e.g. ``T >= 300``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from repro.clpr.solver import Engine
from repro.clpr.terms import Atom, Struct, Var
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.facts import IncrementalFactGenerator
from repro.consistency.report import ConsistencyResult, Inconsistency
from repro.consistency.rules import consistency_program
from repro.errors import ConsistencyError
from repro.mib.tree import MibTree
from repro.nmsl.specs import Specification


class SpeculativeChecker:
    """What-if checking of a new specification against an existing one."""

    def __init__(self, existing: Specification, tree: MibTree):
        self._existing = existing
        self._tree = tree

    def check_addition(self, candidate: Specification) -> ConsistencyResult:
        """Check ``existing + candidate``, reporting only new problems.

        A problem is *new* if it names a process instance, system or
        domain declared in the candidate, or if the existing specification
        alone did not exhibit it.
        """
        baseline = ConsistencyChecker(self._existing, self._tree).check()
        baseline_keys = {
            self._problem_key(problem) for problem in baseline.inconsistencies
        }
        merged = self._existing.merged_with(candidate)
        combined = ConsistencyChecker(merged, self._tree).check()
        new_problems = [
            problem
            for problem in combined.inconsistencies
            if self._problem_key(problem) not in baseline_keys
        ]
        return ConsistencyResult(
            consistent=not new_problems,
            inconsistencies=new_problems,
            warnings=combined.warnings,
            stats={
                "existing_problems": len(baseline.inconsistencies),
                "combined_problems": len(combined.inconsistencies),
                "new_problems": len(new_problems),
                **{f"combined_{k}": v for k, v in combined.stats.items()},
            },
        )

    def estimated_new_load(
        self, candidate: Specification, bits_per_request: float = 8192.0
    ) -> float:
        """Approximate management traffic (bps) the candidate would add.

        "If summary data is available for the existing internet,
        approximate values can be used to determine the amount of traffic
        generated."  Sums the maximum query rates of the candidate's
        references.
        """
        merged = self._existing.merged_with(candidate)
        facts = IncrementalFactGenerator(self._tree).generate(merged)
        candidate_owners = set(candidate.systems) | set(candidate.domains)
        total_rate = 0.0
        for reference in facts.references:
            instance_id = reference.client.split(":", 1)[1]
            owner = instance_id.split("@", 1)[1].rsplit("#", 1)[0]
            if owner in candidate_owners:
                rate = reference.frequency.max_rate_per_second()
                if rate != float("inf"):
                    total_rate += rate
        return total_rate * bits_per_request

    @staticmethod
    def _problem_key(problem: Inconsistency) -> Tuple[str, str]:
        origin = problem.reference.origin if problem.reference else ""
        return (problem.kind.value, problem.message + "|" + origin)


@dataclass
class FrequencyBound:
    """A solved constraint on a reference's frequency parameter."""

    op: str
    seconds: float

    def describe(self) -> str:
        return f"period {self.op} {self.seconds:g} seconds"


def solve_for_frequency(
    specification: Specification,
    tree: MibTree,
    client_process: str,
    server_process: str,
    limit: int = 50,
) -> List[FrequencyBound]:
    """Reverse mode: solve for the query periods that keep the spec consistent.

    The program is the specification's own, unchanged; the goal is
    ``ok(I, J, V, readonly, T)`` with the period ``T`` free, ``I`` and
    ``J`` the first instances of *client_process* and *server_process*,
    ``V`` the first variable the client queries.  The union of residual
    bounds on ``T`` across answers is the periods that query may use.
    """
    facts = IncrementalFactGenerator(tree).generate(specification)
    program = consistency_program(facts)

    # Find an instance pair to ask about.
    client_instances = [
        instance
        for instance in facts.instances
        if instance.process_name == client_process
    ]
    server_instances = [
        instance
        for instance in facts.instances
        if instance.process_name == server_process
    ]
    if not client_instances or not server_instances:
        raise ConsistencyError(
            f"need at least one instance each of {client_process!r} and "
            f"{server_process!r} to solve for frequency"
        )
    client = client_instances[0]
    server = server_instances[0]

    process = specification.processes[client_process]
    if not process.queries:
        raise ConsistencyError(f"process {client_process!r} has no queries")
    variable_path = process.queries[0].requests[0]

    engine = Engine(program, max_depth=100_000)
    names = (client.id, server.id, variable_path, "readonly")
    goal = Struct("ok", (*map(Atom, names), Var.fresh("T")))
    bounds: List[FrequencyBound] = []
    seen = set()
    for answer in engine.solve([goal], limit=limit):
        for bound in answer.residual:
            key = (bound.op, bound.value)
            if key in seen:
                continue
            seen.add(key)
            bounds.append(FrequencyBound(bound.op, float(bound.value)))
        value = answer.bindings.get("T")
        if value is not None and not isinstance(value, Var):
            rendered = getattr(value, "value", None)
            if rendered is not None:
                key = ("=", Fraction(rendered))
                if key not in seen:
                    seen.add(key)
                    bounds.append(FrequencyBound("=", float(rendered)))
    return bounds
