"""One fact base per invocation: shared == fresh, and once means once.

``NmslCompiler.generate(tag, result, facts=...)`` renders from the fact
set it is handed (the checker's ``checked_facts``) and otherwise expands
one itself with interned MIB views.  Both must give, byte for byte, what
the codegen of the parent commit gave — that one expanded its own facts
with the bare ``FactGenerator``, which stays in tree as the oracles'
reference and is the third column here.
"""

import random
from pathlib import Path

import pytest

from repro import cli
from repro.consistency import facts as facts_module
from repro.consistency.checker import ConsistencyChecker
from repro.consistency.facts import FactGenerator
from repro.errors import CodegenError
from repro.codegen.base import ConfigurationGenerator
from repro.codegen.transport import CallbackTransport
from repro.nmsl.compiler import NmslCompiler
from repro.workloads.generator import SyntheticInternet
from repro.workloads.paper import PaperScaleInternet, PaperScaleParameters
from tests.corpus import corpus

_ROOT = Path(__file__).resolve().parents[2]
_EXAMPLES = sorted((_ROOT / "examples").glob("*.nmsl"))
_GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIG_TAGS = ("BartsSnmpd", "acl-table", "osi")
TAGS = CONFIG_TAGS + ("consistency",)

_COMPILER = NmslCompiler()


def _checked(compiler, result):
    checker = ConsistencyChecker(result.specification, compiler.tree)
    checker.check()
    return checker


def _assert_three_ways_equal(compiler, result, tags=TAGS):
    shared = _checked(compiler, result).checked_facts
    assert shared.specification is result.specification
    parents = FactGenerator(result.specification, compiler.tree).generate()
    texts = {}
    for tag in tags:
        texts[tag] = compiler.generate(tag, result, facts=shared).text()
        assert texts[tag] == compiler.generate(tag, result).text(), tag
        assert texts[tag] == compiler.generate(tag, result, facts=parents).text(), tag
    return texts


@pytest.mark.parametrize(
    "parameters", corpus(), ids=lambda p: f"seed{p.seed}-d{p.n_domains}"
)
def test_corpus_shared_equals_fresh_equals_parent(parameters):
    result = _COMPILER.compile(SyntheticInternet(parameters).text())
    _assert_three_ways_equal(_COMPILER, result)


@pytest.mark.parametrize("path", _EXAMPLES, ids=lambda p: p.stem)
def test_examples_shared_equals_fresh_equals_golden(path):
    result = _COMPILER.compile(path.read_text(encoding="utf-8"))
    texts = _assert_three_ways_equal(_COMPILER, result)
    for tag, suffix in (("BartsSnmpd", "snmpd"), ("acl-table", "acl")):
        golden = _GOLDEN / f"{path.stem}.{suffix}.txt"
        assert texts[tag] == golden.read_text(encoding="utf-8")


@pytest.mark.slow
def test_paper_scale_text_shared_equals_fresh_equals_parent():
    """The seed-1989 1,000-domain text.  The ``consistency`` actions are
    quadratic in the text they filter (half an hour at this size); all
    they read is ``to_clpr_text()``, so that is what is compared."""
    internet = PaperScaleInternet(
        PaperScaleParameters(
            n_domains=1_000,
            hub_count=25,
            silent_domains=(3, 500),
            fast_pollers=(5,),
            egp_pollers=(11,),
            seed=1989,
        )
    )
    compiler = NmslCompiler()
    result = compiler.compile(internet.text())
    _assert_three_ways_equal(compiler, result, tags=CONFIG_TAGS)
    shared = _checked(compiler, result).checked_facts
    parents = FactGenerator(result.specification, compiler.tree).generate()
    assert shared.to_clpr_text() == parents.to_clpr_text()


def test_facts_of_another_specification_are_refused():
    text = _EXAMPLES[0].read_text(encoding="utf-8")
    result, twin = _COMPILER.compile(text), _COMPILER.compile(text)
    others = _checked(_COMPILER, twin).checked_facts
    with pytest.raises(CodegenError, match="another specification"):
        _COMPILER.generate("BartsSnmpd", result, facts=others)
    with pytest.raises(CodegenError, match="another specification"):
        ConfigurationGenerator(_COMPILER, result, facts=others).documents("osi")


# ----------------------------------------------------------------------
# Once means once.
# ----------------------------------------------------------------------


@pytest.fixture
def generations(monkeypatch):
    """Every ``FactGenerator.generate`` call made while the test runs."""
    calls = []
    original = FactGenerator.generate

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FactGenerator, "generate", counting)
    return calls


@pytest.fixture
def views_built(monkeypatch):
    """The paths-tuple of every ``MibView`` the fact layer constructs."""
    built = []
    original = facts_module.MibView

    def recording(tree, name_paths=()):
        name_paths = tuple(name_paths)
        built.append(name_paths)
        return original(tree, name_paths)

    monkeypatch.setattr(facts_module, "MibView", recording)
    return built


@pytest.fixture
def campus(tmp_path):
    path = tmp_path / "campus.nmsl"
    path.write_text(
        (_ROOT / "examples" / "campus.nmsl").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("tag", TAGS)
def test_check_and_output_expand_facts_once(campus, tag, generations, capsys):
    assert cli.main([str(campus), "--check", "--output", tag]) == 0
    assert len(generations) == 1
    assert capsys.readouterr().out


def test_check_and_ship_expand_facts_once(campus, tmp_path, generations, capsys):
    spool = tmp_path / "spool"
    argv = [str(campus), "--check", "--output", "BartsSnmpd"]
    assert cli.main([*argv, "--ship-dir", str(spool)]) == 0
    assert len(generations) == 1
    assert "shipped gw.cs.campus.edu" in capsys.readouterr().out


def test_profile_with_output_expands_facts_once(campus, generations, capsys):
    assert cli.main(["profile", str(campus), "--output", "acl-table"]) == 0
    assert len(generations) == 1


def test_output_alone_interns_views(tmp_path, generations, views_built, capsys):
    parameters = corpus()[0]
    spec = tmp_path / "internet.nmsl"
    spec.write_text(SyntheticInternet(parameters).text(), encoding="utf-8")
    assert cli.main([str(spec), "--output", "BartsSnmpd"]) == 0
    assert len(generations) == 1
    assert views_built and len(views_built) == len(set(views_built))
    systems = parameters.n_domains * parameters.systems_per_domain
    assert capsys.readouterr().out.count("# snmpd.conf for ") >= systems


def test_an_oracle_engine_leaves_codegen_its_own_single_expansion(
    campus, generations, capsys
):
    argv = [str(campus), "--check", "--engine", "scan", "--output", "osi"]
    assert cli.main(argv) == 0
    # The oracle's bare reference expansion, then the output context's.
    assert len(generations) == 2


def test_generate_for_element_reuses_the_bundle(monkeypatch):
    result = _COMPILER.compile(_EXAMPLES[0].read_text(encoding="utf-8"))
    runs = []
    original = NmslCompiler.generate

    def counting(self, tag, result, facts=None):
        runs.append(tag)
        return original(self, tag, result, facts=facts)

    monkeypatch.setattr(NmslCompiler, "generate", counting)
    generator = ConfigurationGenerator(_COMPILER, result)
    whole = generator.documents("BartsSnmpd")
    for element in list(whole)[:3]:
        config = generator.generate_for_element("BartsSnmpd", element)
        assert config.text == whole[element]
    shipped = []
    generator.ship("BartsSnmpd", CallbackTransport(lambda e, t: shipped.append(e)))
    generator.documents("acl-table")
    assert runs == ["BartsSnmpd", "acl-table"]
    assert shipped


# ----------------------------------------------------------------------
# Shared facts after an owner-local patch (profile --diff-against).
# ----------------------------------------------------------------------

_DROPPED = "mgmt.mib.ip, mgmt.mib.icmp, mgmt.mib.tcp, mgmt.mib.udp;"
_KEPT = "mgmt.mib.ip, mgmt.mib.icmp, mgmt.mib.tcp;"


def _owner_local_edit(text: str) -> str:
    """One system stops supporting ``mgmt.mib.udp``."""
    head, _, tail = text.partition(_DROPPED)
    assert tail, "campus.nmsl no longer has the supports list this edits"
    return head + _KEPT + tail


def test_patched_facts_render_the_new_specification():
    old_text = (_ROOT / "examples" / "campus.nmsl").read_text(encoding="utf-8")
    old = _COMPILER.compile(old_text)
    new = _COMPILER.compile(_owner_local_edit(old_text))
    checker = _checked(_COMPILER, old)
    before = checker.checked_facts
    outcome = checker.recheck(new.specification)
    assert outcome.stats["patched"] is True
    patched = checker.checked_facts
    assert patched is before and patched.specification is new.specification
    with pytest.raises(CodegenError):
        _COMPILER.generate("BartsSnmpd", old, facts=patched)
    changed = 0
    for tag in TAGS:
        shared = _COMPILER.generate(tag, new, facts=patched).text()
        assert shared == _COMPILER.generate(tag, new).text(), tag
        changed += shared != _COMPILER.generate(tag, old).text()
    assert changed, "the edit should move at least one generated output"


def test_profile_diff_against_hands_codegen_the_patched_facts(
    campus, tmp_path, monkeypatch, capsys
):
    new = tmp_path / "new.nmsl"
    new.write_text(
        _owner_local_edit(campus.read_text(encoding="utf-8")), encoding="utf-8"
    )
    seen = []
    original = NmslCompiler.generate

    def recording(self, tag, result, facts=None):
        bundle = original(self, tag, result, facts=facts)
        seen.append((facts, bundle.text(), original(self, tag, result).text()))
        return bundle

    monkeypatch.setattr(NmslCompiler, "generate", recording)
    argv = ["profile", str(new), "--diff-against", str(campus)]
    assert cli.main([*argv, "--output", "BartsSnmpd"]) == 0
    assert "consistency.facts.patch" in capsys.readouterr().out
    ((facts, shared, fresh),) = seen
    assert facts is not None and facts.expansion["expanded"] == 1
    assert shared == fresh


def test_random_owner_local_edits_keep_shared_equal_to_fresh():
    """Five corpus specs, each with one system's supports list cut."""
    rng = random.Random(24)
    for parameters in rng.sample(corpus(), 5):
        text = SyntheticInternet(parameters).text()
        old = _COMPILER.compile(text)
        victim = rng.choice(sorted(old.specification.systems))
        head, marker, tail = text.partition(f'system "{victim}" ::=')
        assert ",\n        mgmt.mib.udp;" in tail
        tail = tail.replace(",\n        mgmt.mib.udp;", ";", 1)
        new = _COMPILER.compile(head + marker + tail)
        checker = _checked(_COMPILER, old)
        assert checker.recheck(new.specification).stats["patched"] is True
        for tag in TAGS:
            shared = _COMPILER.generate(
                tag, new, facts=checker.checked_facts
            ).text()
            assert shared == _COMPILER.generate(tag, new).text(), tag
