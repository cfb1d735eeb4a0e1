"""The consistency rules as CLP(R) program text (the faithful path).

"The Consistency Checker adds statements describing the consistency of any
NMSL specification to [the compiler's] output and executes the CLP(R)
interpreter" (paper Section 4.2).  These are those statements: the
transitivity rule for containment, the distribution rules for containment
and instantiation over reference and permission, and the reduction rules
relating references to permissions.  The final goal proves
*inconsistency*: a reference with no covering permission, valid under the
closed-world assumption.
"""

CONSISTENCY_RULES = r"""
% ---- transitivity: containment is transitive -------------------------
% Written child-first; it is the same relation as the parent-first
% closure, but a call with only the child bound climbs its ancestors
% instead of enumerating every containment edge.
contains_tc(X, Y) :- contains(X, Y).
contains_tc(X, Z) :- contains(Y, Z), contains_tc(X, Y).

% ---- distribution: instantiation places instances in domains ---------
in_domain(I, D) :- contains_tc(domain(D), instance(I)).
in_domain(I, D) :- instance(I, S, _), contains_tc(domain(D), system(S)).

% ---- instance-level references (distribute queries over instan) ------
% literal process target: the client may reach any instance of it.
ref_inst(I, J, V, A, T) :-
    instance(I, _, P), proc_query(P, proc(Q), V, A, T), instance(J, _, Q).
% parameter target bound at instantiation to a system name.
ref_inst(I, J, V, A, T) :-
    instance(I, _, P), proc_query(P, param(N), V, A, T),
    inst_arg(I, N, system(S)), instance(J, S, _).
% parameter target bound to a process-type name.
ref_inst(I, J, V, A, T) :-
    instance(I, _, P), proc_query(P, param(N), V, A, T),
    inst_arg(I, N, proc(Q)), instance(J, _, Q).

% ---- instance-level permissions (distribute exports over instan) -----
perm_inst(J, D, V, A, T) :-
    instance(J, _, P), proc_export(P, D, V, A, T).
perm_inst(J, D, V, A, T) :-
    instance(J, S, _), contains_tc(domain(G), system(S)),
    dom_export(G, D, V, A, T).
perm_inst(J, D, V, A, T) :-
    contains_tc(domain(G), instance(J)), dom_export(G, D, V, A, T).

% ---- reduction: a permission covers a reference ----------------------
grantee_ok(public, _).
grantee_ok(D, I) :- in_domain(I, D).

server_ok(J, V) :-
    instance(J, S, P),
    proc_supports(P, PV), data_covers(PV, V),
    system_supports(S, SV), data_covers(SV, V).
% proxy management (Section 3.1): an instance of a proxy process serves
% the PROXIED element's data; its translation ability is its own
% supports clause, the data must be on the proxied element.
server_ok(J, V) :-
    instance(J, _, P), proxy_for(P, system(S), _),
    proc_supports(P, PV), data_covers(PV, V),
    system_supports(S, SV), data_covers(SV, V).

% references reaching a proxied element resolve to the proxy instances.
ref_inst(I, J, V, A, T) :-
    instance(I, _, P), proc_query(P, param(N), V, A, T),
    inst_arg(I, N, system(S)), proxy_for(Q, system(S), _), instance(J, _, Q).

covered(I, J, V, A, T) :-
    perm_inst(J, D, PV, PA, PT),
    grantee_ok(D, I),
    data_covers(PV, V),
    access_covers(PA, A),
    T >= PT.

ok(I, J, V, A, T) :- server_ok(J, V), covered(I, J, V, A, T).
% exports govern access from OUTSIDE the domain: sharing an IMMEDIATE
% containing domain implicitly permits the reference (Section 4.1.5);
% a distant common ancestor grants nothing.
in_domain_direct(I, D) :- contains(domain(D), instance(I)).
in_domain_direct(I, D) :- instance(I, S, _), contains(domain(D), system(S)).
ok(I, J, V, A, T) :-
    server_ok(J, V), in_domain_direct(I, D), in_domain_direct(J, D).

% ---- the inconsistency proof (closed world) --------------------------
inconsistent(ref(I, J, V, A, T)) :-
    ref_inst(I, J, V, A, T), \+ ok(I, J, V, A, T).
"""
