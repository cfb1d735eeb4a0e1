"""The datalog path: bottom-up evaluation of the consistency rules.

An oracle between the indexed checker and full SLD resolution: the
same facts and (positive) rules as the CLP(R) path, evaluated bottom-up
with semi-naive iteration over interned fact tuples
(:mod:`repro.consistency.seminaive`).  The rule text below is still the
single source of truth — it is parsed with the CLP(R) parser and
translated mechanically into the tuple engine's compiled-rule IR, so
the two logical paths cannot drift apart.  The closed-world negation of
the ``inconsistent`` rule is applied afterwards as a set difference:
every derived ``ref_inst`` without a matching ``ok`` is an
inconsistency — which is exactly what negation-as-failure computes over
a finite model.

Provenance comes for free: the fact base records why each fact was
derived, so the report can show the derivation of the offending
reference (the "immediate causes" of Section 4.2).
"""

from __future__ import annotations

from typing import List, Sequence

from repro import obs
from repro.clpr.program import Clause, parse_clauses
from repro.clpr.terms import Atom, Num, Struct, Term
from repro.clpr.terms import Var as ClprVar
from repro.consistency.facts import FactGenerator
from repro.consistency.report import (
    ConsistencyResult,
    Inconsistency,
    InconsistencyKind,
)
from repro.consistency.seminaive import (
    Guard,
    Literal,
    Rule,
    Var,
    seminaive_fixpoint,
)
from repro.errors import ClprError
from repro.mib.tree import MibTree
from repro.nmsl.specs import Specification

#: The positive consistency rules (the CLP(R) rule text minus the
#: negation-bearing ``inconsistent`` rule, which the closed-world step
#: below replaces).
POSITIVE_RULES = r"""
contains_tc(X, Y) :- contains(X, Y).
contains_tc(X, Z) :- contains(X, Y), contains_tc(Y, Z).

in_domain(I, D) :- contains_tc(domain(D), instance(I)).
in_domain(I, D) :- instance(I, S, _), contains_tc(domain(D), system(S)).

ref_inst(I, J, V, A, T) :-
    instance(I, _, P), proc_query(P, proc(Q), V, A, T), instance(J, _, Q).
ref_inst(I, J, V, A, T) :-
    instance(I, _, P), proc_query(P, param(N), V, A, T),
    inst_arg(I, N, system(S)), instance(J, S, _).
ref_inst(I, J, V, A, T) :-
    instance(I, _, P), proc_query(P, param(N), V, A, T),
    inst_arg(I, N, proc(Q)), instance(J, _, Q).
ref_inst(I, J, V, A, T) :-
    instance(I, _, P), proc_query(P, param(N), V, A, T),
    inst_arg(I, N, system(S)), proxy_for(Q, system(S), _), instance(J, _, Q).

perm_inst(J, D, V, A, T) :-
    instance(J, _, P), proc_export(P, D, V, A, T).
perm_inst(J, D, V, A, T) :-
    instance(J, S, _), contains_tc(domain(G), system(S)),
    dom_export(G, D, V, A, T).
perm_inst(J, D, V, A, T) :-
    contains_tc(domain(G), instance(J)), dom_export(G, D, V, A, T).

grantee_ok(public, I) :- instance(I, _, _).
grantee_ok(D, I) :- in_domain(I, D).

server_ok(J, V) :-
    instance(J, S, P),
    proc_supports(P, PV), data_covers(PV, V),
    system_supports(S, SV), data_covers(SV, V).
server_ok(J, V) :-
    instance(J, _, P), proxy_for(P, system(S), _),
    proc_supports(P, PV), data_covers(PV, V),
    system_supports(S, SV), data_covers(SV, V).

covered(I, J, V, A, T) :-
    ref_inst(I, J, V, A, T),
    perm_inst(J, D, PV, PA, PT),
    grantee_ok(D, I),
    data_covers(PV, V),
    access_covers(PA, A),
    T >= PT.

in_domain_direct(I, D) :- contains(domain(D), instance(I)).
in_domain_direct(I, D) :- instance(I, S, _), contains(domain(D), system(S)).
covered(I, J, V, A, T) :-
    ref_inst(I, J, V, A, T),
    in_domain_direct(I, D), in_domain_direct(J, D).

ok(I, J, V, A, T) :- covered(I, J, V, A, T), server_ok(J, V).
"""

_GUARD_FUNCTORS = {"<", "=<", ">", ">=", "=:=", "=\\="}


def _pattern_of(term: Term):
    """CLP(R) term -> tuple-engine pattern."""
    if isinstance(term, ClprVar):
        # Keep the parser's identity: distinct anonymous ``_`` variables
        # carry distinct ids and must stay distinct.
        return Var(f"{term.name}.{term.id}")
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Num):
        value = term.value
        return int(value) if value.denominator == 1 else float(value)
    if isinstance(term, Struct):
        return (term.functor,) + tuple(
            _pattern_of(arg) for arg in term.args
        )
    raise ClprError(f"cannot translate term {term!r} to the tuple engine")


def _literal_of(term: Term) -> Literal:
    if not isinstance(term, Struct):
        raise ClprError(f"rule literal {term!r} is not a compound term")
    return Literal(
        term.functor, tuple(_pattern_of(arg) for arg in term.args)
    )


def translate_clauses(clauses: Sequence[Clause]) -> List[Rule]:
    """Parsed CLP(R) rule clauses -> tuple-engine rules, semantics kept."""
    rules: List[Rule] = []
    for clause in clauses:
        body: List[Literal] = []
        guards: List[Guard] = []
        for goal in clause.body:
            if (
                isinstance(goal, Struct)
                and goal.functor in _GUARD_FUNCTORS
                and len(goal.args) == 2
            ):
                guards.append(
                    Guard(
                        goal.functor,
                        _pattern_of(goal.args[0]),
                        _pattern_of(goal.args[1]),
                    )
                )
            else:
                body.append(_literal_of(goal))
        rules.append(
            Rule(_literal_of(clause.head), tuple(body), tuple(guards))
        )
    return rules


_COMPILED_RULES: List[Rule] = []


def consistency_rules() -> List[Rule]:
    """The translated POSITIVE_RULES (parsed and translated once)."""
    if not _COMPILED_RULES:
        _COMPILED_RULES.extend(translate_clauses(parse_clauses(POSITIVE_RULES)))
    return _COMPILED_RULES


def check_with_datalog(
    specification: Specification,
    tree: MibTree,
) -> ConsistencyResult:
    """Bottom-up consistency check; same model as the CLP(R) path."""
    o = obs.current()
    with o.span("consistency.check", engine="datalog") as span:
        with o.span("consistency.facts"):
            facts = FactGenerator(specification, tree).generate()
            base_facts = facts.to_tuples()
            rules = consistency_rules()
        with o.span("consistency.forward_chain"):
            fb = seminaive_fixpoint(base_facts, rules)

        # Closed-world step: ref_inst without a matching ok.
        ok_tuples = {fact[1:] for fact in fb.facts_for("ok")}
        problems: List[Inconsistency] = []
        for fact in sorted(fb.facts_for("ref_inst"), key=repr):
            if fact[1:] not in ok_tuples:
                derivation = "\n".join(fb.explain(fact, depth=3)[:4])
                _ref_inst, client, server, variable, _access, _period = fact
                problems.append(
                    Inconsistency(
                        kind=InconsistencyKind.MISSING_PERMISSION,
                        message=(
                            f"datalog proved: reference without permission "
                            f"{fact!r}"
                        ),
                        # The derivation, then the CLP(R) path's
                        # structured causes (``failing_clients`` reads them).
                        causes=(
                            derivation,
                            f"client {client}",
                            f"server {server}",
                            f"variable {variable}",
                        ),
                    )
                )
        span.annotate(derived_facts=len(fb))
    if o.enabled:
        o.counter(
            "repro_consistency_checks_total",
            "consistency checks run",
            engine="datalog",
        ).inc()
        for rule in sorted(fb.rule_stats):
            stats = fb.rule_stats[rule]
            if stats["firings"]:
                o.counter(
                    "repro_datalog_rule_firings_total",
                    "new facts derived per rule",
                    rule=rule,
                ).inc(stats["firings"])
            o.histogram(
                "repro_datalog_rule_seconds",
                _help="per-rule evaluation time across rounds",
                rule=rule,
            ).observe(round(stats["seconds"], 9))
    return ConsistencyResult(
        consistent=not problems,
        inconsistencies=problems,
        stats={
            "engine": "datalog-seminaive",
            "derived_facts": len(fb),
            "seconds": span.elapsed,
            "rule_stats": fb.rule_stats,
        },
    )
