"""One attribution rule: the diff fingerprints the documents that ship.

:func:`~repro.codegen.base.element_documents` is the only place output
units are attributed to elements.  ``ship``, ``generate_for_element``,
the simulated network and the relational diff all read it, so

* a fingerprint is the sha256 of the shipped document, for every tag;
* the order declarations are written in moves no shipped byte (campus
  with its systems after its domains, and every corpus spec with its
  kinds shuffled together);
* each document is the compiler's output units for the element, in the
  canonical order (process types, the system, the domains that list it);
* ``elements=`` looks its scope up (elements by name, their delivering
  domains through the fact set's containment tables) instead of walking
  the declaration tables, so the impact analyzer pays for the ten
  elements a one-domain delta touches, not for 100,000 — and for every
  element, alone or in company, the scoped document is the unscoped one.
"""

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from repro import cli
from repro.codegen import ACL_TAG, OSI_TAG, SNMPD_TAG
from repro.codegen.base import ConfigurationGenerator, element_documents
from repro.codegen.transport import CallbackTransport
from repro.consistency.facts import IncrementalFactGenerator
from repro.consistency.impact import ImpactAnalyzer
from repro.nmsl.compiler import CompilerOptions, NmslCompiler, output_registry
from repro.nmsl.extension import parse_extension
from repro.nmsl.specs import Specification
from repro.workloads.generator import SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters

from tests.corpus import (
    CORPUS_SIZE,
    campus_slower_cs_exports,
    campus_systems_last,
    corpus,
)
from tests.nmsl.test_extension import BILLING_EXTENSION, SPEC_WITH_BILLING

_ROOT = Path(__file__).resolve().parents[2]
_EXAMPLES = sorted((_ROOT / "examples").glob("*.nmsl"))

TREE = NmslCompiler(CompilerOptions(register_codegen=False)).tree
CONFIG_TAGS = (SNMPD_TAG, ACL_TAG, OSI_TAG)
TAGS = CONFIG_TAGS + ("consistency",)
REGISTRY = output_registry()
_COMPILER = NmslCompiler()


def _campus() -> str:
    return (_ROOT / "examples" / "campus.nmsl").read_text(encoding="utf-8")


def _shipped(compiler, result, tag):
    """element -> the bytes ``ship`` delivers, as text."""
    shipped = {}
    ConfigurationGenerator(compiler, result).ship(
        tag, CallbackTransport(shipped.__setitem__)
    )
    return shipped


# ----------------------------------------------------------------------
# Fingerprints are the digests of what ships.
# ----------------------------------------------------------------------


def _full_scope_prints(specification):
    """tag -> element -> the digest a full-scope diff from nothing reads."""
    analyzer = ImpactAnalyzer(TREE, tags=TAGS, config_scope="full")
    analyzer.baseline(Specification())
    prints = {tag: {} for tag in TAGS}
    for change in analyzer.analyze(specification).config_changes:
        assert change.old_digest is None
        prints[change.tag][change.element] = change.new_digest
    return prints


#: ``examples/`` and the 50-spec corpus, by name.
SPEC_TEXTS = {path.stem: path.read_text(encoding="utf-8") for path in _EXAMPLES}
SPEC_TEXTS.update(
    (f"spec{index:02d}", SyntheticInternet(parameters).text())
    for index, parameters in enumerate(corpus())
)


@pytest.mark.parametrize("text", SPEC_TEXTS.values(), ids=SPEC_TEXTS)
def test_every_fingerprint_is_the_digest_of_the_shipped_document(text):
    result = _COMPILER.compile(text)
    prints = _full_scope_prints(result.specification)
    for tag in TAGS:
        shipped = _shipped(_COMPILER, result, tag)
        assert shipped, tag
        assert prints[tag] == {
            element: hashlib.sha256(document.encode("utf-8")).hexdigest()
            for element, document in shipped.items()
        }, tag


def test_declaration_order_moves_no_shipped_byte():
    result = _COMPILER.compile(_campus())
    permuted = _COMPILER.compile(campus_systems_last())
    assert [decltype for decltype, _ in permuted.order] != [
        decltype for decltype, _ in result.order
    ]
    for tag in TAGS:
        assert _shipped(_COMPILER, permuted, tag) == _shipped(
            _COMPILER, result, tag
        ), tag


def _interleaved(parameters, rng):
    """*parameters*' text with the declarations of its three kinds
    shuffled together, each kind's kept in its own order."""
    chunks = list(SyntheticInternet(parameters).iter_text())
    systems = 1 + parameters.n_domains * parameters.systems_per_domain
    queues = [chunks[:1], chunks[1:systems], chunks[systems:]]
    shuffled = []
    while any(queues):
        shuffled.append(rng.choice([q for q in queues if q]).pop(0))
    return "\n".join(shuffled)


@pytest.mark.parametrize(
    "index", range(CORPUS_SIZE), ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)]
)
def test_interleaving_the_kinds_moves_no_shipped_byte(index):
    parameters = corpus()[index]
    result = _COMPILER.compile(SyntheticInternet(parameters).text())
    shuffled = _COMPILER.compile(_interleaved(parameters, random.Random(index)))
    assert shuffled.ok
    for tag in TAGS:
        assert _shipped(_COMPILER, shuffled, tag) == _shipped(
            _COMPILER, result, tag
        ), tag


def test_a_consistency_edit_redrives_the_elements_it_rewrites(tmp_path, capsys):
    old, new = tmp_path / "campus.nmsl", tmp_path / "slower.nmsl"
    old.write_text(_campus(), encoding="utf-8")
    new.write_text(campus_slower_cs_exports(), encoding="utf-8")
    cli.main(["diff", str(old), str(new), "--output", "consistency"])
    captured = capsys.readouterr()
    assert "2 redrive(s)" in captured.out + captured.err
    before = _shipped(_COMPILER, _COMPILER.compile(_campus()), "consistency")
    after = _shipped(
        _COMPILER, _COMPILER.compile(campus_slower_cs_exports()), "consistency"
    )
    assert sorted(e for e in after if after[e] != before.get(e)) == [
        "db.cs.campus.edu",
        "gw.cs.campus.edu",
    ]


# ----------------------------------------------------------------------
# Documents are the compiler's units, in canonical order.
# ----------------------------------------------------------------------


def _reference_documents(compiler, result, tag):
    """The units of ``compiler.generate`` — the declaration walk —
    attributed in canonical order."""
    specification = result.specification
    units = {
        (unit.decltype, unit.name): unit.text
        for unit in compiler.generate(tag, result).units
        if unit.text
    }
    members = {name: [] for name in specification.systems}
    for domain in specification.domains.values():
        for name in domain.systems:
            members.setdefault(name, []).append(domain.name)
    documents = {}
    for name, domains in members.items():
        system = specification.systems.get(name)
        processes = set() if system is None else {
            invocation.process_name for invocation in system.processes
        }
        keys = [("process", p) for p in specification.processes if p in processes]
        keys += [("system", name)] + [("domain", d) for d in domains]
        chunks = [units[key] for key in keys if key in units]
        if chunks:
            documents[name] = "\n".join(chunks)
    return documents


def _generated(compiler, result, tag):
    return ConfigurationGenerator(compiler, result).documents(tag)


@pytest.mark.parametrize("text", SPEC_TEXTS.values(), ids=SPEC_TEXTS)
def test_documents_are_the_compilers_units_in_canonical_order(text):
    result = _COMPILER.compile(text)
    for tag in TAGS:
        assert _generated(_COMPILER, result, tag) == _reference_documents(
            _COMPILER, result, tag
        ), tag


def test_extension_clauses_are_part_of_their_declarations_unit():
    compiler = NmslCompiler(
        CompilerOptions(extensions=(parse_extension(BILLING_EXTENSION),))
    )
    result = compiler.compile(
        SPEC_WITH_BILLING
        + '\nsystem "meter.example" ::=\n    cpu sparc;\n'
        + "    supports mgmt.mib;\n    process meteredAgent;\n"
        + 'end system "meter.example".\n'
    )
    for tag in ("acct-report", "consistency"):
        documents = _generated(compiler, result, tag)
        assert documents == _reference_documents(compiler, result, tag), tag
    assert documents["meter.example"].count("billing_rate(meteredAgent, 12).") == 1
    assert _generated(compiler, result, "acct-report") == {
        "meter.example": "charge meteredAgent 12 cents per query"
    }


# ----------------------------------------------------------------------
# A scoped call renders what the unscoped one does.
# ----------------------------------------------------------------------


def _documents(specification, facts, tags, elements=None):
    return {
        tag: element_documents(
            specification,
            tag,
            REGISTRY,
            tree=TREE,
            facts=facts,
            elements=elements,
            clause_actions={},
        )
        for tag in tags
    }


def _assert_scopes_agree(specification, scopes, tags):
    facts = IncrementalFactGenerator(TREE).generate(specification)
    unscoped = _documents(specification, facts, tags)
    assert any(unscoped[tag] for tag in tags)
    for scope in scopes:
        scoped = _documents(specification, facts, tags, scope)
        for tag in tags:
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
        TAGS,
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
        CONFIG_TAGS,
    )
