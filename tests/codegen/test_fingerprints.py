"""Scoped configuration fingerprints equal unscoped ones.

``config_fingerprints(elements=...)`` looks its scope up (elements by
name, their delivering domains through the fact set's containment
tables) instead of walking the declaration tables, so the impact
analyzer pays for the ten elements a one-domain delta touches, not for
100,000.  Attribution must not notice: for every element, alone or in
company, the scoped fingerprint is the unscoped one — over the 50-spec
differential corpus (some of its elements sit in two domains once an
umbrella membership is added) and the seed-1989 1,000-domain model, for
all three configuration output types.
"""

import dataclasses

import pytest

from repro.codegen import ACL_TAG, OSI_TAG, SNMPD_TAG
from repro.codegen.fingerprints import (
    config_fingerprints,
    default_fingerprint_registry,
)
from repro.consistency.facts import IncrementalFactGenerator
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.workloads.generator import SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters

from tests.corpus import CORPUS_SIZE, corpus

TREE = NmslCompiler(CompilerOptions(register_codegen=False)).tree
TAGS = (SNMPD_TAG, ACL_TAG, OSI_TAG)
REGISTRY = default_fingerprint_registry()


def _prints(specification, facts, elements=None):
    return config_fingerprints(
        specification,
        TREE,
        tags=TAGS,
        elements=elements,
        facts=facts,
        registry=REGISTRY,
    )


def _assert_scopes_agree(specification, scopes):
    facts = IncrementalFactGenerator(TREE).generate(specification)
    unscoped = _prints(specification, facts)
    assert any(unscoped[tag] for tag in TAGS)
    for scope in scopes:
        scoped = _prints(specification, facts, scope)
        for tag in TAGS:
            assert scoped[tag] == {
                element: unscoped[tag][element]
                for element in scope
                if element in unscoped[tag]
            }, (tag, scope)


@pytest.mark.parametrize(
    "index", range(CORPUS_SIZE), ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)]
)
def test_corpus_scoped_equals_unscoped(index):
    specification = SyntheticInternet(corpus()[index]).specification()
    # The last domain also lists the first domain's first element, out
    # of declaration order: one element, two delivering domains.
    first, *_others, last = specification.domains.values()
    specification.domains[last.name] = dataclasses.replace(
        last, systems=last.systems + first.systems[:1]
    )
    names = list(specification.systems)
    _assert_scopes_agree(
        specification,
        [[name] for name in names]
        + [names[::2], names[::-1], names + ["no.such.element"]],
    )


def test_paper_model_scoped_equals_unscoped():
    parameters = PaperScaleParameters(
        n_domains=1000, hub_count=25, silent_domains=(3, 500), seed=1989
    )
    specification = PaperScaleInternet(parameters).specification()
    # Every element, a domain's worth at a time (the impact analyzer's
    # scope), then a few on their own and one scope across domains.
    by_domain = [
        list(domain.systems)
        for domain in specification.domains.values()
        if domain.systems
    ]
    assert sum(map(len, by_domain)) == len(specification.systems)
    _assert_scopes_agree(
        specification,
        by_domain
        + [[scope[0]] for scope in by_domain[::100]]
        + [[scope[-1] for scope in by_domain[::50]]],
    )
