"""The CLP(R) text says what the walk says.

:meth:`FactSet.to_clpr_text` renders one walk,
:meth:`FactSet.base_facts`.  Reading the text back with the CLP(R)
parser, each fact as a tuple, gives the walk's facts again in order —
also for names that need quoting and escaping.
"""

from pathlib import Path

import pytest

from repro.clpr.program import parse_clauses
from repro.clpr.terms import Atom, Struct
from repro.consistency.facts import IncrementalFactGenerator
from repro.nmsl.compiler import NmslCompiler
from repro.workloads.generator import InternetParameters, SyntheticInternet
from tests.corpus import CORPUS_SIZE, corpus, quoted_campus
from tests.nmsl.test_consistency_output import _renamed

_ROOT = Path(__file__).resolve().parents[2]
_COMPILER = NmslCompiler()


def _value(term):
    if isinstance(term, Struct):
        return (term.functor, *map(_value, term.args))
    if isinstance(term, Atom):
        return term.name
    return term.value


def _assert_text_says_what_the_walk_says(specification):
    facts = IncrementalFactGenerator(_COMPILER.tree).generate(specification)
    walked = [fact for _owner, fact in facts.base_facts()]
    read = [_value(clause.head) for clause in parse_clauses(facts.to_clpr_text())]
    assert read == walked


@pytest.mark.parametrize(
    "path", sorted((_ROOT / "examples").glob("*.nmsl")), ids=lambda p: p.stem
)
def test_examples(path):
    result = _COMPILER.compile(path.read_text(encoding="utf-8"))
    _assert_text_says_what_the_walk_says(result.specification)


@pytest.mark.parametrize(
    "parameters", corpus(), ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)]
)
def test_corpus(parameters):
    _assert_text_says_what_the_walk_says(
        SyntheticInternet(parameters).specification()
    )


def test_quoted_system_name():
    _assert_text_says_what_the_walk_says(
        _COMPILER.compile(quoted_campus()).specification
    )


def test_names_that_need_quoting():
    base = SyntheticInternet(
        InternetParameters(
            n_domains=3, systems_per_domain=2, applications_per_domain=1
        )
    ).specification()
    systems, domains = list(base.systems), list(base.domains)
    names = ["o'neil", "back\\slash", "Cap, comma", "x#1", "b@a", "\\'"]
    rename = dict(zip(systems, names))
    rename.update({domains[0]: "d'1", domains[1]: "it\\s, #@"})
    _assert_text_says_what_the_walk_says(_renamed(base, rename))
