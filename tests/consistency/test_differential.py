"""Differential suite: the production checker against the oracle table.

The indexed/incremental checker is only trustworthy if it keeps agreeing
with the faithful path of paper Figure 3.1.  This suite draws a seeded
corpus of ≥50 synthetic internets (reusing
:class:`repro.workloads.generator.SyntheticInternet`), adds the campus
example with a system named ``gw.cs.o'neil.edu`` (engine agreement
only), and asserts, for every spec and every oracle registered in
:data:`repro.consistency.oracles.ORACLES`:

* the oracle returns the checker's consistent/inconsistent verdict;
* it implicates the same set of client instances (the *causes*, via
  :func:`failing_clients`) — the checker and ``scan`` name the client on
  the offending reference, the rule-driven paths in a structured
  ``client ...`` cause;
* ``scan``, which words its report as the checker does, renders the
  byte-identical report;
* every engine's warnings are one :class:`Warnings` — ``scan``'s and a
  speculative check's equal to the checker's, the rule-driven paths'
  empty;
* an incremental ``recheck`` that arrives at the spec from a clean
  baseline produces the same verdict and causes as a from-scratch check.

Scope note — wildcard targets are excluded by construction: the
synthetic generator only emits literal ``system:`` query targets.
Wildcard (``*``) references have run-time-bound targets, which the
CLP(R) fact rendering cannot ground, so the two paths are not comparable
there (the checker decides them existentially; see the module docstring
of :mod:`repro.consistency.oracles`).
"""

from pathlib import Path

import pytest

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.index import PermissionIndex
from repro.consistency.oracles import ORACLES, failing_clients
from repro.consistency.report import Warnings
from repro.consistency.speculative import SpeculativeChecker
from repro.nmsl.compiler import CompilerOptions, NmslCompiler
from repro.nmsl.specs import Specification
from repro.workloads.generator import SyntheticInternet
from tests.corpus import CORPUS_SIZE, corpus, quoted_campus

_COMPILER = NmslCompiler(CompilerOptions(register_codegen=False))
_ROOT = Path(__file__).resolve().parents[2]


def spec_texts():
    """``examples/`` and the corpus as NMSL text, by name."""
    texts = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((_ROOT / "examples").glob("*.nmsl"))
    }
    for number, parameters in enumerate(corpus()):
        texts[f"spec{number:02d}"] = SyntheticInternet(parameters).text()
    return texts


@pytest.mark.parametrize(
    "parameters",
    [*corpus(), quoted_campus()],
    ids=[*(f"spec{i:02d}" for i in range(CORPUS_SIZE)), "campus-quote"],
)
def test_engines_agree(parameters):
    """*parameters* draw a synthetic internet, or are NMSL text."""
    if isinstance(parameters, str):
        specification = _COMPILER.compile(parameters).specification
    else:
        specification = SyntheticInternet(parameters).specification()
    tree = _COMPILER.tree

    indexed = ConsistencyChecker(specification, tree).check()
    assert isinstance(indexed.warnings, Warnings)
    assert {"scan", "clpr", "datalog"} <= set(ORACLES)
    for name, oracle in ORACLES.items():
        answer = oracle(specification, tree)
        assert isinstance(answer.warnings, Warnings), name
        # Verdict agreement (acceptance criterion: 0 disagreements).
        assert answer.consistent == indexed.consistent, (
            f"verdict disagreement on {parameters!r}: "
            f"indexed={indexed.consistent} {name}={answer.consistent}"
        )
        # Every oracle implicates the same clients.
        assert failing_clients(answer) == failing_clients(indexed), (
            f"cause disagreement with {name} on {parameters!r}"
        )
        if name == "scan":
            # It words its report as the checker does: same bytes.
            assert answer.render() == indexed.render()
            assert answer.warnings == indexed.warnings
        else:
            # The rule text decides references, not instantiations.
            assert answer.warnings == ()
    # A speculative check of nothing added reports the same warnings.
    speculative = SpeculativeChecker(specification, tree).check_addition(
        Specification()
    )
    assert speculative.warnings == indexed.warnings
    assert isinstance(speculative.warnings, Warnings)


def test_scan_oracle_shares_no_state_with_the_checker(monkeypatch):
    """An oracle is only evidence if it is independent: checking the
    same specification object through ``scan`` builds no
    ``PermissionIndex``, reads and writes none of a live checker's
    memos, and reduces a fact set of its own."""
    parameters = next(p for p in corpus() if p.silent_domains)
    specification = SyntheticInternet(parameters).specification()
    tree = _COMPILER.tree
    checker = ConsistencyChecker(specification, tree)
    indexed = checker.check()
    assert indexed.inconsistencies

    def state():
        return (
            checker.cache_tallies(),
            checker._index.stats(),
            len(checker._cover_memo),
            len(checker._fit_memo),
            len(checker._candidate_memo),
            len(checker._generator._views),
        )

    built = []
    build = PermissionIndex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(PermissionIndex, "__init__", counting)
    before = state()
    scan = ORACLES["scan"](specification, tree)
    assert built == []
    assert state() == before
    assert scan.render() == indexed.render()
    for mine, theirs in zip(indexed.inconsistencies, scan.inconsistencies):
        assert mine.reference == theirs.reference
        assert mine.reference is not theirs.reference


@pytest.mark.parametrize(
    "parameters",
    corpus(),
    ids=[f"spec{i:02d}" for i in range(CORPUS_SIZE)],
)
def test_sharded_reduction_is_byte_identical(parameters):
    """``--jobs N`` must be invisible in the output: verdicts, causes
    and the canonical report JSON are byte-identical to a single-process
    check for every spec in the corpus.

    ``shard_threshold=1`` forces the multi-process sharded reduction
    even on these small corpora (the production threshold would keep
    them serial); the merge is then exercised with both fewer and more
    buckets than shard keys.
    """
    specification = SyntheticInternet(parameters).specification()
    tree = _COMPILER.tree

    serial = ConsistencyChecker(specification, tree).check(jobs=1)
    baseline = serial.to_json()
    for jobs in (2, 8):
        sharded = ConsistencyChecker(
            specification, tree, shard_threshold=1
        ).check(jobs=jobs)
        assert sharded.to_json() == baseline, (
            f"jobs={jobs} report diverges on {parameters!r}"
        )
        assert [
            (p.kind, p.message, p.causes) for p in sharded.inconsistencies
        ] == [(p.kind, p.message, p.causes) for p in serial.inconsistencies]
        assert failing_clients(sharded) == failing_clients(serial)


@pytest.mark.parametrize(
    "parameters",
    corpus()[:10],
    ids=[f"spec{i:02d}" for i in range(10)],
)
def test_incremental_recheck_agrees(parameters):
    """Arriving at a spec via recheck() equals checking it from scratch."""
    import dataclasses

    tree = _COMPILER.tree
    baseline = SyntheticInternet(
        dataclasses.replace(
            parameters, silent_domains=(), fast_pollers=(), egp_pollers=()
        )
    ).specification()
    target = SyntheticInternet(parameters).specification()

    checker = ConsistencyChecker(baseline, tree)
    checker.check()
    incremental = checker.recheck(target)
    scratch = ConsistencyChecker(target, tree).check()

    assert incremental.consistent == scratch.consistent
    assert sorted(p.message for p in incremental.inconsistencies) == sorted(
        p.message for p in scratch.inconsistencies
    )
    assert failing_clients(incremental) == failing_clients(scratch)
