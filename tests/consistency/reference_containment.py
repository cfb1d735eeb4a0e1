"""Test-side oracle: the recursive containment closure, verbatim.

This is ``FactSet.transitive_containment()`` as it shipped until the
owner-keyed tables replaced it; the body is the old method unchanged
apart from taking the edge list as an argument.  Kept only so
``test_containment_oracle.py`` can hold ``FactSet.ancestors(tag)`` equal
to it on every tag.  On a containment *cycle* the two differ by design:
the guard below hands a half-built (empty) set to whoever re-enters a
domain, so which domains end up above which depends on visit order; the
production tables give every domain on a cycle every other one.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple


def transitive_containment(
    containment: List[Tuple[str, str]],
) -> Dict[str, Set[str]]:
    """child -> set of all (transitive) containers."""
    parents: Dict[str, Set[str]] = {}
    direct: Dict[str, Set[str]] = {}
    for parent, child in containment:
        direct.setdefault(child, set()).add(parent)
    #: canonical direct-parent key -> the shared ancestor set.
    shared: Dict[Tuple[str, ...], Set[str]] = {}

    def collect(child: str) -> Set[str]:
        got = parents.get(child)
        if got is not None:
            return got
        parents[child] = set()  # cycle guard (cycles reported elsewhere)
        key = tuple(sorted(direct.get(child, ())))
        result = shared.get(key)
        if result is None:
            result = set()
            for parent in key:
                result.add(parent)
                result.update(collect(parent))
            shared[key] = result
        parents[child] = result
        return result

    for child in direct:
        collect(child)
    return parents
