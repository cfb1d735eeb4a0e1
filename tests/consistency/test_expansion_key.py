"""What the checker's fact set is keyed on: the staleness key of
DESIGN.md §3.1 (each table's object and ``revision``, and the items of
the extension tables' lists).  So:

* every way a specification can change in place — per table: replace,
  add, delete, the same object under a new key, reorder, and every
  ``dict`` mutator of every table; an append to an ``extras`` list; a
  changed ``extension_clauses`` entry — makes the next ``check()``
  regenerate, and equal a fresh check byte for byte;
* a warm check is O(tables): it reads no declaration table, neither an
  entry nor its length, and no value fingerprint is computed on the way;
* equal values under other objects (a re-parse) are matched by
  ``recheck``'s diff, which rebinds the facts it keeps to the new
  specification — so codegen accepts them as that specification's;
* a fork's recheck, on any of the three paths, answers like a fresh
  check and leaves the checker it was forked from as it was;
* the checker's ``version`` moves at every new expansion (regeneration,
  owner patch, rebind) and only then, so the analysis findings a
  revision keeps under it are recomputed after every in-place change.
"""

import dataclasses
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import cli, operations
from repro.asn1.nodes import IntegerType
from repro.consistency.checker import ConsistencyChecker
from repro.mib.tree import Access
from repro.nmsl import specs as specs_module
from repro.nmsl.compiler import NmslCompiler
from repro.nmsl.specs import TABLES, Table, TypeSpec
from repro.operations import ANALYSIS_CODES
from repro.workloads.generator import InternetParameters, SyntheticInternet
from tests.consistency.deltas import LOCAL_DELTAS, NON_LOCAL_DELTAS, report_of
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
    """An entry that differs from *value* in what it grants or holds."""
    if table == "extras":
        return [*value, "changed"]
    if table == "extension_clauses":
        return [("metered", ("y",))]
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


def _new_entry(spec, table):
    """A key the table lacks, and an entry to put under it."""
    entries = getattr(spec, table)
    if table == "extras":
        return "second-note", ["second"]
    if table == "extension_clauses":
        return ("domain", next(iter(spec.domains))), [("metered", ("z",))]
    last = _last(entries)
    return f"{last}-copy", dataclasses.replace(entries[last], name=f"{last}-copy")


def _last(entries):
    return list(entries)[-1]


#: Each dict mutator of :class:`Table`, called on a table in place.
_MUTATOR_CALLS = {
    "setitem": lambda e, s, t: e.__setitem__(_last(e), _changed(t, e[_last(e)])),
    "delitem": lambda e, s, t: e.__delitem__(_last(e)),
    "pop": lambda e, s, t: e.pop(_last(e)),
    # Counted although nothing moves: pop counts every call.
    "pop-missing-default": lambda e, s, t: e.pop("no-such-entry", None),
    "popitem": lambda e, s, t: e.popitem(),
    "clear": lambda e, s, t: e.clear(),
    "update": lambda e, s, t: e.update({_last(e): _changed(t, e[_last(e)])}),
    "setdefault-insert": lambda e, s, t: e.setdefault(*_new_entry(s, t)),
    "ior": lambda e, s, t: e.__ior__(dict([_new_entry(s, t)])),
}


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
] + [
    pytest.param(
        lambda spec, table=table, call=call: call(getattr(spec, table), spec, table),
        id=f"{table}-{name}",
    )
    for table in TABLES
    for name, call in _MUTATOR_CALLS.items()
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


@pytest.mark.parametrize("mutate", _MUTATIONS)
def test_in_place_change_reruns_the_analysis(mutate):
    """The findings a revision keeps are keyed on its checker's
    ``version``, which every in-place change moves."""
    spec = _specification()
    revision = operations.Revision(_COMPILER, SimpleNamespace(specification=spec))
    _analysis(revision)
    mutate(spec)
    kept = _analysis(revision)
    fresh = _analysis(
        operations.Revision(_COMPILER, SimpleNamespace(specification=spec))
    )
    assert kept == fresh
    if kept[1] is not None:
        assert kept[1] == len(ANALYSIS_CODES)


def _analysis(revision):
    """The rendered analysis of *revision* and the passes it ran, or how
    it failed (some edits leave a dangling name)."""
    try:
        report, passes_run = operations.analyze([revision], {"select": None})
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return f"{type(exc).__name__}: {exc}", None
    return report.render(), passes_run


def test_the_version_moves_with_every_new_expansion():
    """A warm check keeps the token; a regeneration, an owner patch and
    a rebind each take a new one; a fork's recheck leaves the origin's."""
    rng = random.Random(7)
    spec = _specification()
    checker = ConsistencyChecker(spec, _COMPILER.tree)
    checker.check()
    version = checker.version
    checker.check()
    assert checker.version is version
    checker.fork().recheck(_equal_values(rng, spec))
    assert checker.version is version
    for step in ("rebind", "patch", "regenerate"):
        if step == "rebind":
            result = checker.recheck(_equal_values(rng, spec))
            assert result.stats["diff_entries"] == 0
        elif step == "patch":
            spec = rng.choice(LOCAL_DELTAS)(rng, spec)
            assert checker.recheck(spec).stats["patched"]
        else:
            _replace(spec, "domains")
            assert checker.check().stats["facts_expanded"] > 0
        assert checker.version is not version, step
        version = checker.version


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
    done to it in place; the staleness key is what notices."""
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


# ----------------------------------------------------------------------
# Every dict mutator of every table counts.
# ----------------------------------------------------------------------

#: ``dict``'s own methods, split by whether they can change the dict.
_DICT_READERS = {
    "__class_getitem__", "__contains__", "__getitem__", "__iter__",
    "__len__", "__or__", "__reversed__", "__ror__", "copy", "fromkeys",
    "get", "items", "keys", "values",
}
_DICT_MUTATORS = {
    "__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem",
    "setdefault", "update",
}


def test_table_overrides_exactly_the_dict_mutators():
    # A method a later Python adds to dict must be sorted in first.
    assert _DICT_READERS | _DICT_MUTATORS == set(dir(dict)) - set(dir(object))
    overridden = {name for name, value in vars(Table).items() if callable(value)}
    assert overridden == _DICT_MUTATORS


@pytest.mark.parametrize("table", TABLES)
def test_setdefault_on_an_existing_key_counts_nothing(table):
    spec = _specification()
    checker = ConsistencyChecker(spec, _COMPILER.tree)
    checker.check()
    entries = getattr(spec, table)
    revision = entries.revision
    entries.setdefault(_last(entries), None)
    assert entries.revision == revision
    warm = checker.check()
    assert warm.stats["facts_expanded"] == 0
    assert report_of(warm) == report_of(ConsistencyChecker(spec, _COMPILER.tree).check())


def test_same_object_reassignment_regenerates_to_the_same_verdict():
    """Where the key is stricter than the declarations: a key given
    back the object it held regenerates, to the same verdict."""
    spec = _specification()
    checker = ConsistencyChecker(spec, _COMPILER.tree)
    before = checker.check()
    for table in ("systems", "domains"):
        entries = getattr(spec, table)
        entries[_last(entries)] = entries[_last(entries)]
    again = checker.check()
    assert again.stats["facts_expanded"] == again.stats["facts_declarations"]
    assert (again.render(), again.to_json()) == (before.render(), before.to_json())


def test_a_plain_dict_becomes_a_table_and_a_table_stays_shared():
    spec = _specification()
    edited = dataclasses.replace(spec, domains=dict(spec.domains))
    assert type(edited.domains) is Table
    assert edited.domains == spec.domains and edited.domains is not spec.domains
    assert edited.systems is spec.systems
    edited.types = {}
    assert type(edited.types) is Table


# ----------------------------------------------------------------------
# A warm check is O(tables).
# ----------------------------------------------------------------------


#: Every ``dict`` method that reads entries, or their number.
_READS = (
    "__iter__", "keys", "values", "items",
    "__getitem__", "get", "__contains__", "__len__",
)


def test_warm_check_reads_no_declaration_table_entry():
    """At 1,000 domains the staleness test reads no table entry: none of
    ``_READS`` is called on the four declaration tables during a warm
    ``check()`` — no walk, and no keyed lookup either."""
    reads = []

    def counted(name):
        method = getattr(dict, name)

        def read(self, *args):
            reads.append(name)
            return method(self, *args)

        return read

    Counted = type("Counted", (Table,), {name: counted(name) for name in _READS})

    spec = SyntheticInternet(
        InternetParameters(n_domains=1000, silent_domains=(1,), fast_pollers=(2,))
    ).specification()
    spec = dataclasses.replace(
        spec, **{name: Counted(getattr(spec, name)) for name in _TABLES}
    )
    checker = ConsistencyChecker(spec, _COMPILER.tree)
    cold = checker.check()
    assert reads  # the count sees what the cold check reads
    reads.clear()
    warm = checker.check()
    assert reads == []
    assert warm.stats["facts_expanded"] == 0
    assert warm.render() == cold.render()


# ----------------------------------------------------------------------
# In-place edits interleaved with check and recheck.
# ----------------------------------------------------------------------


def test_recheck_after_an_in_place_edit_and_a_diff_regenerates():
    """The old specification edited in place, then a new one diffed
    against it: the diff misses the in-place edit, so no verdict of the
    facts it staled may be reused."""
    spec = _specification()
    checker = ConsistencyChecker(spec, _COMPILER.tree)
    checker.check()
    silent, loud = list(spec.domains)[2:]  # both export to begin with
    spec.domains[silent] = _changed("domains", spec.domains[silent])
    new = dataclasses.replace(
        spec,
        domains={
            **spec.domains,
            loud: _changed("domains", spec.domains[loud]),
        },
    )
    again = checker.recheck(new)
    assert report_of(again) == report_of(ConsistencyChecker(new, _COMPILER.tree).check())


def _in_place(rng, spec):
    """Change one table of *spec* in place through one dict mutator,
    keeping every name (so the deltas below still find what they edit)."""
    table = rng.choice(TABLES)
    entries = getattr(spec, table)
    if not entries:
        return
    name = rng.choice(list(entries))
    value = entries[name]
    how = rng.choice(("setitem", "same", "update", "ior", "move", "reverse"))
    if how == "setitem":
        entries[name] = _changed(table, value)
    elif how == "same":
        entries[name] = value
    elif how == "update":
        entries.update({name: _changed(table, value)})
    elif how == "ior":
        entries |= {name: _changed(table, value)}
    elif how == "move":
        entries[name] = entries.pop(name)
    else:
        items = list(entries.items())
        entries.clear()
        entries.update(reversed(items))


def _equal_values(rng, spec):
    """A revision with the same tables: its empty diff rebinds the facts."""
    return dataclasses.replace(spec)


#: A fork is rechecked with one of these: patched, regenerated, rebound.
_FORK_DELTAS = (LOCAL_DELTAS, NON_LOCAL_DELTAS, (_equal_values,))


def _checked_state(checker):
    """What a fork's recheck must leave as it was."""
    return (
        checker.check().render(),
        list(checker._verdict_list),
        list(checker.checked_facts.base_facts()),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    steps=st.lists(
        st.sampled_from(
            ("in-place", "check", "recheck-self", "recheck-delta", "fork")
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_interleaved_edits_check_like_a_fresh_checker(seed, steps):
    rng = random.Random(seed)
    spec = _specification()
    checker = ConsistencyChecker(spec, _COMPILER.tree)
    checker.check()
    for step in steps:
        checked = spec
        if step == "in-place":
            _in_place(rng, spec)
            continue
        if step == "check":
            result = checker.check()
        elif step == "recheck-self":
            result = checker.recheck(spec)
        elif step == "fork":
            before = _checked_state(checker)
            checked = rng.choice(rng.choice(_FORK_DELTAS))(rng, spec)
            result = checker.fork().recheck(checked)
            assert _checked_state(checker) == before
        else:
            spec = checked = rng.choice(LOCAL_DELTAS)(rng, spec)
            result = checker.recheck(spec)
        fresh = ConsistencyChecker(checked, _COMPILER.tree).check()
        assert report_of(result) == report_of(fresh)
