"""The NMSL Consistency Checker (paper Section 4.2).

The consistency model has six relationships (paper Figure 4.9):

=====================  ====================================================
``contains(X, Y)``     X contains Y
``instan(X, Y, Z)``    X instantiates Y with unique id Z
``ref_eq(X,Y,A,T)``    it is possible that X references Y for access A
                       every T seconds
``ref_gt(X,Y,A,T)``    ... at most every T seconds
``perm_eq(X,Y,A,T)``   X has permission to reference Y for access A every
                       T seconds
``perm_gt(X,Y,A,T)``   ... at most every T seconds
=====================  ====================================================

"A NMSL specification is said to be consistent if, for every reference
relationship, there is a corresponding permission."  Three rule families
drive the proof: **transitivity** (containment), **distribution**
(containment/instantiation over each other and over reference and
permission), and **reduction** (relating references to permissions).  The
proof is a *proof of inconsistency* under a closed-world assumption; found
inconsistencies are reported with their immediate causes.

There is one checker, and a table of oracles beside it:

* :class:`~repro.consistency.checker.ConsistencyChecker` — the
  production path: indexed reduction over owner-keyed facts,
  incremental :meth:`~repro.consistency.checker.ConsistencyChecker.recheck`;
* :data:`~repro.consistency.oracles.ORACLES` — ``{name: (specification,
  tree) -> ConsistencyResult}``, the independent executable models the
  differential suite holds the checker to: ``scan`` (the reduction rule
  of :mod:`repro.consistency.causes` for every reference; byte-identical
  reports) and ``clpr`` (:func:`~repro.consistency.oracles.check_with_clpr`,
  the faithful path: the compiler's CLP(R) consistency output plus the
  rule text of :mod:`repro.consistency.rules`, run through
  :class:`repro.clpr.Engine`).  Two oracles, one rule text.

Speculative modes (paper Section 4.2) live in
:mod:`repro.consistency.speculative`: checking a new organisation's
specification against an existing internet, and running the check "in
reverse" to solve for the reference/permission parameters that keep the
combined specification consistent.
"""

from repro.consistency.relations import (
    ACCESS_ORDER,
    Permission,
    Reference,
    access_atom,
)
from repro.consistency.facts import FactGenerator, InstanceId
from repro.consistency.checker import ConsistencyChecker, ConsistencyResult
from repro.consistency.oracles import ORACLES, check_with_clpr
from repro.consistency.evolution import (
    SpecificationDiff,
    diff_specifications,
)
from repro.consistency.impact import (
    ConfigChange,
    ImpactAnalyzer,
    ImpactSet,
    PermissionChange,
    VerdictFlip,
    impacted_elements,
)
from repro.consistency.report import Inconsistency, InconsistencyKind
from repro.consistency.speculative import SpeculativeChecker, solve_for_frequency

__all__ = [
    "ACCESS_ORDER",
    "ConfigChange",
    "ConsistencyChecker",
    "ConsistencyResult",
    "FactGenerator",
    "ImpactAnalyzer",
    "ImpactSet",
    "SpecificationDiff",
    "diff_specifications",
    "Inconsistency",
    "InconsistencyKind",
    "InstanceId",
    "ORACLES",
    "Permission",
    "PermissionChange",
    "Reference",
    "SpeculativeChecker",
    "VerdictFlip",
    "access_atom",
    "check_with_clpr",
    "impacted_elements",
    "solve_for_frequency",
]
