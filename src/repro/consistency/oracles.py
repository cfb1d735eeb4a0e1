"""Executable oracles: independent models the production checker is held to.

:data:`ORACLES` is a plain ``{name: (specification, tree) ->
ConsistencyResult}`` table.  The differential suite
(``tests/consistency/test_differential.py``) iterates it;
``nmslc --check --engine NAME`` and ``nmslc profile --engine NAME`` run
an entry by name.

* ``scan`` — the reduction rule of :mod:`repro.consistency.causes` for
  *every* reference over a fresh :class:`FactGenerator`: no index, no
  memo, no interned views.  Held to the checker's report byte for byte.
* ``clpr`` — the faithful path of paper Figure 3.1: the compiler's
  CLP(R) consistency output (:meth:`FactSet.to_clpr_text`) plus the rule
  text of :mod:`repro.consistency.rules`, queried for ``inconsistent(R)``
  through :class:`repro.clpr.Engine`.  Wildcard (``*``) query targets are
  outside it (unknown until run time; the checker decides them
  existentially).  It words its report its own way, so it is held to
  the verdict and to :func:`failing_clients`.

:mod:`repro.consistency.rules` is the only rule text; ``clpr`` is the
only oracle that reads it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro import obs
from repro.clpr.program import parse_program
from repro.clpr.solver import Engine
from repro.clpr.terms import Struct
from repro.consistency.causes import (
    ClippedView,
    candidate_servers,
    check_reference,
    instantiation_outcomes,
)
from repro.consistency.facts import FactGenerator
from repro.consistency.report import (
    ConsistencyResult,
    Inconsistency,
    InconsistencyKind,
    Warnings,
)
from repro.consistency.rules import CONSISTENCY_RULES
from repro.mib.tree import MibTree
from repro.nmsl.specs import Specification


def check_with_scan(
    specification: Specification, tree: MibTree
) -> ConsistencyResult:
    """Every reference through the unindexed reduction rule."""
    o = obs.current()
    with o.span("consistency.check", engine="scan") as span:
        generator = FactGenerator(specification, tree)
        with o.span("consistency.facts"):
            facts = generator.generate()
        outcomes = instantiation_outcomes(facts, facts.instances)
        problems = [out for out in outcomes if out.__class__ is Inconsistency]
        warnings = Warnings.concat(
            facts.warnings,
            (out for out in outcomes if out.__class__ is ClippedView),
        )
        with o.span("consistency.reduce", references=len(facts.references)):
            for reference in facts.references:
                problems.extend(
                    check_reference(
                        reference,
                        facts,
                        candidate_servers(reference, facts),
                        generator.view,
                    )
                )
        span.annotate(inconsistencies=len(problems))
    if o.enabled:
        o.counter(
            "repro_consistency_checks_total",
            "consistency checks run",
            engine="scan",
        ).inc()
    return ConsistencyResult(
        consistent=not problems,
        inconsistencies=problems,
        warnings=warnings,
        stats={
            "instances": len(facts.instances),
            "references": len(facts.references),
            "permissions": len(facts.permissions),
            "containment_edges": facts.containment_edges(),
            "engine": "scan",
            "seconds": span.elapsed,
        },
    )


def check_with_clpr(
    specification: Specification,
    tree: MibTree,
) -> ConsistencyResult:
    """The faithful CLP(R) path: facts text + rules text -> engine query.

    The query runs to exhaustion: every ``inconsistent(R)`` answer is
    read.  A proof deeper than the engine's depth bound raises
    :class:`~repro.errors.ClprError`.
    """
    o = obs.current()
    with o.span("consistency.check", engine="clpr") as span:
        with o.span("consistency.facts"):
            facts = FactGenerator(specification, tree).generate()
            program_text = facts.to_clpr_text() + CONSISTENCY_RULES
            program = parse_program(program_text)
        engine = Engine(program, max_depth=100_000)
        problems: List[Inconsistency] = []
        seen = set()
        with o.span("consistency.solve", clauses=len(program)):
            for answer in engine.solve("inconsistent(R)"):
                term = answer.value("R")
                rendered = repr(term)
                if rendered in seen:
                    continue
                seen.add(rendered)
                causes: Tuple[str, ...] = ()
                if (
                    isinstance(term, Struct)
                    and term.functor == "ref"
                    and len(term.args) == 5
                ):
                    client, server, variable, _access, _period = term.args
                    causes = (
                        f"client {client!r}",
                        f"server {server!r}",
                        f"variable {variable!r}",
                    )
                problems.append(
                    Inconsistency(
                        kind=InconsistencyKind.MISSING_PERMISSION,
                        message=f"CLP(R) proved: inconsistent({rendered})",
                        causes=causes,
                    )
                )
        span.annotate(**engine.stats)
    if o.enabled:
        o.counter(
            "repro_consistency_checks_total",
            "consistency checks run",
            engine="clpr",
        ).inc()
        o.counter(
            "repro_clpr_unifications_total",
            "head/argument unification attempts in the SLD engine",
        ).inc(engine.stats["unifications"])
        o.counter(
            "repro_clpr_constraint_propagations_total",
            "linear constraints pushed to the store",
        ).inc(engine.stats["constraint_propagations"])
    return ConsistencyResult(
        consistent=not problems,
        inconsistencies=problems,
        stats={
            "clauses": len(program),
            "seconds": span.elapsed,
            "engine": "clpr-sld",
            "unifications": engine.stats["unifications"],
            "constraint_propagations": engine.stats["constraint_propagations"],
        },
    )


#: name -> oracle.  The names are the ``--engine`` choices beside
#: ``indexed`` (the production checker).
ORACLES: Dict[str, Callable[[Specification, MibTree], ConsistencyResult]] = {
    "scan": check_with_scan,
    "clpr": check_with_clpr,
}


def failing_clients(result: ConsistencyResult) -> frozenset:
    """The client instance ids implicated by a result's inconsistencies.

    Works across the table: the checker and ``scan`` name the client via
    the offending :class:`Reference`, the CLP(R) path in its structured
    ``client ...`` cause.  Used by the differential suite to compare
    *causes*, not just verdicts.
    """
    clients = set()
    for problem in result.inconsistencies:
        if problem.reference is not None and problem.reference.client.startswith(
            "instance:"
        ):
            clients.add(problem.reference.client.split(":", 1)[1])
            continue
        for cause in problem.causes:
            if cause.startswith("client "):
                clients.add(cause.split(" ", 1)[1].strip("'"))
    return frozenset(clients)
