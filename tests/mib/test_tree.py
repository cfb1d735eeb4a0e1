"""Tests for the MIB registration tree."""

import pytest

from repro.asn1.nodes import IntegerType
from repro.errors import MibError
from repro.mib.oid import Oid
from repro.mib.tree import Access, MibTree


@pytest.fixture
def tree():
    tree = MibTree()
    tree.register("iso", "1")
    tree.register("org", "1.3")
    tree.register("leafA", "1.3.1", syntax=IntegerType(), access=Access.READ_ONLY)
    tree.register("leafB", "1.3.2", syntax=IntegerType(), access=Access.READ_WRITE)
    tree.add_root_alias("iso", "1")
    return tree


class TestAccess:
    def test_parse_variants(self):
        assert Access.parse("ReadOnly") is Access.READ_ONLY
        assert Access.parse("read-only") is Access.READ_ONLY
        assert Access.parse("read_write") is Access.READ_WRITE
        assert Access.parse("Any") is Access.ANY
        assert Access.parse("None") is Access.NONE

    def test_parse_unknown(self):
        with pytest.raises(MibError):
            Access.parse("sometimes")

    def test_read_write_flags(self):
        assert Access.READ_ONLY.allows_read()
        assert not Access.READ_ONLY.allows_write()
        assert Access.WRITE_ONLY.allows_write()
        assert not Access.WRITE_ONLY.allows_read()
        assert Access.ANY.allows_read() and Access.ANY.allows_write()
        assert not Access.NONE.allows_read()

    def test_permits(self):
        assert Access.READ_WRITE.permits(Access.READ_ONLY)
        assert not Access.READ_ONLY.permits(Access.READ_WRITE)
        assert Access.READ_ONLY.permits(Access.NONE)
        assert Access.ANY.permits(Access.WRITE_ONLY)
        assert not Access.WRITE_ONLY.permits(Access.READ_ONLY)


class TestRegistration:
    def test_register_and_lookup_by_oid(self, tree):
        assert tree.node_at("1.3.1").name == "leafA"

    def test_anonymous_ancestors_created(self):
        tree = MibTree()
        tree.register("deep", "1.2.3.4.5")
        assert tree.contains_oid("1.2.3.4")
        assert tree.node_at("1.2.3").name == ""

    def test_fill_in_anonymous_ancestor(self):
        tree = MibTree()
        tree.register("deep", "1.2.3")
        node = tree.register("mid", "1.2")
        assert tree.node_at("1.2") is node
        assert node.children[3].name == "deep"

    def test_conflicting_name_rejected(self, tree):
        with pytest.raises(MibError):
            tree.register("other", "1.3.1")

    def test_reregister_same_name_merges(self, tree):
        node = tree.register("leafA", "1.3.1", description="updated")
        assert node.description == "updated"

    def test_empty_oid_rejected(self, tree):
        with pytest.raises(MibError):
            tree.register("x", "")


class TestNamePaths:
    def test_resolve(self, tree):
        assert tree.resolve("iso.org.leafA").oid == Oid("1.3.1")

    def test_resolve_via_alias(self):
        tree = MibTree()
        tree.register("table", "1.1")
        tree.register("entry", "1.1.1", aliases=("Entry",))
        tree.register("top", "1")
        tree.add_root_alias("top", "1")
        assert tree.resolve("top.table.Entry").name == "entry"

    def test_unknown_root(self, tree):
        with pytest.raises(MibError, match="unknown name-path root"):
            tree.resolve("nowhere.leafA")

    def test_unknown_member(self, tree):
        with pytest.raises(MibError, match="no member"):
            tree.resolve("iso.org.leafZ")

    def test_empty_path(self, tree):
        with pytest.raises(MibError):
            tree.resolve("")

    def test_knows(self, tree):
        assert tree.knows("iso.org")
        assert not tree.knows("iso.nope")

    def test_name_path_rendering(self, tree):
        assert tree.resolve("iso.org.leafA").name_path() == "iso.org.leafA"

    def test_resolve_is_memoised_per_tree(self, tree):
        node = tree.resolve("iso.org.leafA")
        walked = []
        original = MibTree._child_named
        try:
            MibTree._child_named = staticmethod(
                lambda node, name: walked.append(name) or original(node, name)
            )
            assert tree.resolve("iso.org.leafA") is node
            assert tree.knows("iso.org.leafA")
            assert walked == []
            assert tree.resolve("iso.org.leafB").oid == Oid("1.3.2")
            assert walked == ["org", "leafB"]
        finally:
            MibTree._child_named = staticmethod(original)

    def test_failures_are_not_memoised(self, tree):
        for _ in range(2):
            with pytest.raises(MibError, match="no member 'leafZ' in path"):
                tree.resolve("iso.org.leafZ")
            assert not tree.knows("iso.org.leafZ")
        tree.register("leafZ", "1.3.26")
        assert tree.resolve("iso.org.leafZ").oid == Oid("1.3.26")

    def test_every_mutator_drops_the_memo(self):
        tree = MibTree()
        tree.register("top", "1")
        tree.register("table", "1.1")
        tree.add_root_alias("top", "1")
        assert tree.resolve("top.table").oid == Oid("1.1")
        # register: a second child with the name shadows nothing, but a
        # re-pointed root alias and a filled-in ancestor both must show.
        tree.register("other", "2")
        tree.register("table", "2.1")
        tree.add_root_alias("top", "2")
        assert tree.resolve("top.table").oid == Oid("2.1")
        # _ensure: anonymous ancestors appear under a resolved path...
        tree.register("deep", "2.1.5.9")
        assert not tree.knows("top.table.mid.deep")
        # ...and naming one (register's fill-in branch) makes it resolve.
        tree.register("mid", "2.1.5")
        assert tree.resolve("top.table.mid.deep").oid == Oid("2.1.5.9")
        # An alias added by re-registering is seen at once.
        assert not tree.knows("top.table.Mid")
        tree.register("mid", "2.1.5", aliases=("Mid",))
        assert tree.resolve("top.table.Mid").name == "mid"


class TestTraversal:
    def test_walk_in_oid_order(self, tree):
        names = [node.name for node in tree.walk("1.3")]
        assert names == ["org", "leafA", "leafB"]

    def test_leaves(self, tree):
        assert [node.name for node in tree.leaves("1")] == ["leafA", "leafB"]

    def test_walk_unknown_prefix_is_empty(self, tree):
        assert list(tree.walk("9")) == []

    def test_next_leaf(self, tree):
        assert tree.next_leaf("1.3").name == "leafA"
        assert tree.next_leaf("1.3.1").name == "leafB"
        assert tree.next_leaf("1.3.2") is None
