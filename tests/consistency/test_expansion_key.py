"""What the checker's fact set is keyed on: the declarations it expanded.

``ConsistencyChecker.facts`` is reused exactly while the specification
still holds, under the same names and in the same order, the objects
the facts were expanded from (and the extension tables' lists hold the
same items).  The test is identity only, so:

* every way a specification can change in place — per table: replace,
  add, delete, the same object under a new key, reorder; an append to
  an ``extras`` list; a changed ``extension_clauses`` entry — makes the
  next ``check()`` regenerate, and equal a fresh check byte for byte;
* no value fingerprint is computed on the way: a cold check and a warm
  ``facts`` access call no declaration's ``fingerprint_tuple``;
* equal values under other objects (a re-parse) are matched by
  ``recheck``'s diff, which rebinds the facts it keeps to the new
  specification — so codegen accepts them as that specification's.
"""

import dataclasses
from pathlib import Path

import pytest

from repro import cli
from repro.asn1.nodes import IntegerType
from repro.consistency.checker import ConsistencyChecker
from repro.mib.tree import Access
from repro.nmsl import specs as specs_module
from repro.nmsl.compiler import NmslCompiler
from repro.nmsl.specs import TypeSpec
from repro.workloads.generator import InternetParameters, SyntheticInternet
from tests.corpus import corpus

_ROOT = Path(__file__).resolve().parents[2]
_CAMPUS = _ROOT / "examples" / "campus.nmsl"
_COMPILER = NmslCompiler()

_TABLES = ("types", "processes", "systems", "domains")


def _specification():
    """An inconsistent internet with something in every table."""
    spec = SyntheticInternet(
        InternetParameters(
            n_domains=4, systems_per_domain=2, applications_per_domain=2,
            silent_domains=(1,), fast_pollers=(2,),
        )
    ).specification()
    for name in ("counterType", "gaugeType"):
        spec.add_type(TypeSpec(name, IntegerType()))
    first_system = next(iter(spec.systems))
    spec.extras["note"] = ["first"]
    spec.extension_clauses[("system", first_system)] = [("metered", ("x",))]
    return spec


def _changed(table, value):
    """A declaration that differs from *value* in what it grants or holds."""
    if table == "types":
        return dataclasses.replace(value, access=Access.READ_WRITE)
    if table == "systems":
        return dataclasses.replace(value, supports=value.supports[:-1])
    return dataclasses.replace(value, exports=())


def _replace(spec, table):
    entries = getattr(spec, table)
    last = list(entries)[-1]
    entries[last] = _changed(table, entries[last])


def _add(spec, table):
    entries = getattr(spec, table)
    last = list(entries)[-1]
    entries[f"{last}-copy"] = dataclasses.replace(
        entries[last], name=f"{last}-copy"
    )


def _delete(spec, table):
    entries = getattr(spec, table)
    del entries[list(entries)[-1]]


def _rekey(spec, table):
    """The last object, unchanged and in place, under a new key."""
    entries = getattr(spec, table)
    last = list(entries)[-1]
    entries[f"{last}-renamed"] = entries.pop(last)


def _reorder(spec, table):
    entries = getattr(spec, table)
    items = list(entries.items())
    entries.clear()
    entries.update(reversed(items))


def _append_extra(spec):
    spec.extras["note"].append("second")


def _change_clause(spec):
    (clauses,) = spec.extension_clauses.values()
    clauses[0] = ("metered", ("y",))


_MUTATIONS = [
    pytest.param(
        lambda spec, table=table, edit=edit: edit(spec, table),
        id=f"{table}-{edit.__name__.lstrip('_')}",
    )
    for table in _TABLES
    for edit in (_replace, _add, _delete, _rekey, _reorder)
] + [
    pytest.param(_append_extra, id="extras-append"),
    pytest.param(_change_clause, id="extension_clauses-change"),
]


def _outcome(spec, checker=None):
    """What a check says, or how it fails (some edits leave a dangling
    name, which a fresh check must refuse the same way)."""
    try:
        result = (checker or ConsistencyChecker(spec, _COMPILER.tree)).check()
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return f"{type(exc).__name__}: {exc}", None
    return (result.render(), result.to_json()), result


@pytest.mark.parametrize("mutate", _MUTATIONS)
def test_in_place_change_is_seen(mutate):
    spec = _specification()
    checker = ConsistencyChecker(spec, _COMPILER.tree)
    checker.check()
    mutate(spec)
    warm, result = _outcome(spec, checker)
    fresh, _ = _outcome(spec)
    assert warm == fresh
    if result is not None:
        stats = result.stats
        assert stats["facts_expanded"] == stats["facts_declarations"]


def test_unchanged_spec_expands_nothing():
    checker = ConsistencyChecker(_specification(), _COMPILER.tree)
    checker.check()
    again = checker.check()
    assert again.stats["facts_expanded"] == 0


@pytest.mark.parametrize(
    "parameters", corpus(), ids=lambda p: f"seed{p.seed}-d{p.n_domains}"
)
def test_reordered_tables_check_like_a_fresh_spec(parameters):
    """Reversing ``systems`` and ``domains`` in place reorders the facts,
    and so the report: the warm check must say what a fresh one says."""
    spec = SyntheticInternet(parameters).specification()
    checker = ConsistencyChecker(spec, _COMPILER.tree)
    checker.check()
    for table in ("systems", "domains"):
        _reorder(spec, table)
    warm = checker.check()
    fresh = ConsistencyChecker(spec, _COMPILER.tree).check()
    assert warm.render() == fresh.render()
    assert warm.to_json() == fresh.to_json()


# ----------------------------------------------------------------------
# No value fingerprint on the check path.
# ----------------------------------------------------------------------


@pytest.fixture
def fingerprinted(monkeypatch):
    """Every declaration ``fingerprint_tuple`` call made while the test
    runs, by declaration class."""
    calls = []
    for kind in ("TypeSpec", "ProcessSpec", "SystemSpec", "DomainSpec"):
        cls = getattr(specs_module, kind)
        original = cls.fingerprint_tuple

        def counting(self, original=original, kind=kind):
            calls.append(kind)
            return original(self)

        monkeypatch.setattr(cls, "fingerprint_tuple", counting)
    return calls


def test_cold_check_and_warm_facts_fingerprint_nothing(fingerprinted):
    checker = ConsistencyChecker(_specification(), _COMPILER.tree)
    checker.check()
    assert fingerprinted == []
    checker.facts
    checker.check()
    assert fingerprinted == []


# ----------------------------------------------------------------------
# Equal values under other objects: recheck's diff, and codegen after it.
# ----------------------------------------------------------------------


def test_recheck_of_a_reparse_rebinds_the_facts():
    text = _CAMPUS.read_text(encoding="utf-8")
    old, new = _COMPILER.compile(text), _COMPILER.compile(text)
    checker = ConsistencyChecker(old.specification, _COMPILER.tree)
    baseline = checker.check()
    kept = checker.checked_facts
    again = checker.recheck(new.specification)
    assert again.stats["patched"] is False
    assert again.stats["rechecked"] == 0
    assert again.stats["facts_expanded"] == 0
    assert again.render() == baseline.render()
    facts = checker.checked_facts
    assert facts is kept and facts.specification is new.specification
    for tag in ("BartsSnmpd", "acl-table", "osi", "consistency"):
        shared = _COMPILER.generate(tag, new, facts=facts).text()
        assert shared == _COMPILER.generate(tag, new).text(), tag


def test_recheck_of_the_same_object_after_in_place_edit_regenerates():
    """The diff of a specification against itself is empty whatever was
    done to it in place; the record is what notices."""
    spec = _specification()
    checker = ConsistencyChecker(spec, _COMPILER.tree)
    checker.check()
    _replace(spec, "domains")
    again = checker.recheck(spec)
    fresh = ConsistencyChecker(spec, _COMPILER.tree).check()
    assert again.render() == fresh.render()
    assert again.stats["facts_expanded"] == again.stats["facts_declarations"]


def test_profile_diff_against_an_equal_file(tmp_path, capsys):
    twin = tmp_path / "campus.nmsl"
    twin.write_text(_CAMPUS.read_text(encoding="utf-8"), encoding="utf-8")
    argv = ["profile", str(_CAMPUS), "--diff-against", str(twin)]
    assert cli.main([*argv, "--output", "BartsSnmpd"]) == 0
    captured = capsys.readouterr()
    assert "another specification" not in captured.err
    assert "consistency.recheck" in captured.out
    assert "codegen.generate" in captured.out
