"""``diff_specifications``'s two walks against a by-name reference.

A table whose key sequence is the same objects in the same order is
diffed by position (the entries that are not the same objects); any
other — an entry added, removed, renamed or moved — by name.  Whichever
walk runs, the diff must equal the plain by-name definition, entry for
entry: every name in either table, sorted, that was removed, added, or
whose declaration fingerprint differs.
"""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro.consistency.evolution import DiffEntry, diff_specifications

from .test_owner_patch import EXPORT, rich_internet

TABLES = (("process", "processes"), ("system", "systems"), ("domain", "domains"))


def by_name_diff(old, new):
    entries = []
    for kind, attribute in TABLES:
        before, after = getattr(old, attribute), getattr(new, attribute)
        for name in sorted(before.keys() | after.keys()):
            if name not in after:
                entries.append(DiffEntry(kind, name, "removed"))
            elif name not in before:
                entries.append(DiffEntry(kind, name, "added"))
            elif (
                before[name].fingerprint_tuple()
                != after[name].fingerprint_tuple()
            ):
                entries.append(DiffEntry(kind, name, "changed"))
    return entries


def _altered(entry):
    """The entry with a value that fingerprints differently."""
    if hasattr(entry, "exports") and hasattr(entry, "subdomains"):
        return dataclasses.replace(
            entry, exports=() if entry.exports else (EXPORT,)
        )
    return dataclasses.replace(entry, supports=(*entry.supports, "mgmt.mib.egp"))


def replace(rng, table):
    name = rng.choice(list(table))
    table[name] = _altered(table[name])
    return table


def equal_copy(rng, table):
    name = rng.choice(list(table))
    table[name] = dataclasses.replace(table[name])  # a new, equal object
    return table


def add(rng, table):
    template = table[rng.choice(list(table))]
    name = f"added{rng.randrange(10**6)}"
    table[name] = dataclasses.replace(template, name=name)
    return table


def remove(rng, table):
    del table[rng.choice(list(table))]
    return table


def rename(rng, table):
    """One key changes where it stands; the order is kept."""
    old = rng.choice(list(table))
    new = f"renamed{rng.randrange(10**6)}"
    return {
        (new if name == old else name): (
            dataclasses.replace(entry, name=new) if name == old else entry
        )
        for name, entry in table.items()
    }


def reorder(rng, table):
    items = list(table.items())
    rng.shuffle(items)
    return dict(items)


def rekey_equal(rng, table):
    """The same names in the same order, under other string objects."""
    return {"".join(list(name)): entry for name, entry in table.items()}


EDITS = (replace, equal_copy, add, remove, rename, reorder, rekey_equal)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    edits=st.lists(
        st.tuples(st.sampled_from(EDITS), st.sampled_from(TABLES)),
        min_size=0,
        max_size=5,
    ),
)
def test_diff_equals_by_name_reference(seed, edits):
    rng = random.Random(seed)
    old = rich_internet(rng, 3, 2)
    tables = {}
    for edit, (_kind, attribute) in edits:
        table = tables.get(attribute, getattr(old, attribute))
        if not table:  # every edit picks an entry (add copies one)
            continue
        # A table untouched so far is copied, keys and entries shared:
        # the positional walk's case until an edit re-keys it.
        tables[attribute] = edit(rng, dict(table))
    new = dataclasses.replace(old, **tables)
    assert diff_specifications(old, new).entries == by_name_diff(old, new)


def test_positional_walk_sees_only_replaced_entries():
    rng = random.Random(2)
    old = rich_internet(rng, 4, 2)
    systems = dict(old.systems)
    name = list(systems)[3]
    systems[name] = _altered(systems[name])
    domains = equal_copy(rng, dict(old.domains))
    new = dataclasses.replace(old, systems=systems, domains=domains)
    assert diff_specifications(old, new).entries == [
        DiffEntry("system", name, "changed")
    ]
