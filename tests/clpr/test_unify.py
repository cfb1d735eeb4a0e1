"""Tests for trail-based unification."""

from repro.clpr.terms import atom, num, struct, var
from repro.clpr.unify import Bindings, occurs, unify, unify_or_undo


class TestWalk:
    def test_walk_unbound(self):
        b = Bindings()
        x = var("X")
        assert b.walk(x) is x

    def test_walk_chain(self):
        b = Bindings()
        x, y = var("X"), var("Y")
        b.bind(x, y)
        b.bind(y, atom("a"))
        assert b.walk(x) == atom("a")


class TestUnify:
    def test_atom_atom(self):
        b = Bindings()
        assert unify(atom("a"), atom("a"), b)
        assert not unify(atom("a"), atom("b"), b)

    def test_var_binds(self):
        b = Bindings()
        x = var("X")
        assert unify(x, num(5), b)
        assert b.walk(x) == num(5)

    def test_struct_recursive(self):
        b = Bindings()
        x, y = var("X"), var("Y")
        assert unify(struct("f", x, "b"), struct("f", "a", y), b)
        assert b.walk(x) == atom("a")
        assert b.walk(y) == atom("b")

    def test_functor_mismatch(self):
        b = Bindings()
        assert not unify(struct("f", "a"), struct("g", "a"), b)

    def test_arity_mismatch(self):
        b = Bindings()
        assert not unify(struct("f", "a"), struct("f", "a", "b"), b)

    def test_shared_variable(self):
        b = Bindings()
        x = var("X")
        assert unify(struct("f", x, x), struct("f", "a", "a"), b)
        assert not unify_or_undo(struct("f", x, x), struct("f", "a", "b"), b)

    def test_num_equality(self):
        b = Bindings()
        assert unify(num(3), num(3), b)
        assert not unify(num(3), num(4), b)

    def test_num_atom_clash(self):
        b = Bindings()
        assert not unify(num(3), atom("three"), b)


class TestTrail:
    def test_undo_restores(self):
        b = Bindings()
        x = var("X")
        mark = b.mark()
        unify(x, atom("a"), b)
        assert len(b) == 1
        b.undo_to(mark)
        assert len(b) == 0
        assert b.walk(x) is x

    def test_unify_or_undo_success_keeps_bindings(self):
        b = Bindings()
        x = var("X")
        assert unify_or_undo(struct("f", x), struct("f", "a"), b)
        assert b.walk(x) == atom("a")

    def test_unify_or_undo_failure_leaves_clean(self):
        b = Bindings()
        x = var("X")
        ok = unify_or_undo(struct("f", x, "b"), struct("f", "a", "c"), b)
        assert not ok
        assert len(b) == 0

    def test_unify_or_undo_ground_mismatch_fails(self):
        b = Bindings()
        assert not unify_or_undo(struct("f", "b"), struct("f", "a"), b)
        assert len(b) == 0

    def test_nested_marks(self):
        b = Bindings()
        x, y = var("X"), var("Y")
        outer = b.mark()
        unify(x, atom("a"), b)
        inner = b.mark()
        unify(y, atom("b"), b)
        b.undo_to(inner)
        assert b.walk(x) == atom("a")
        assert b.walk(y) is y
        b.undo_to(outer)
        assert b.walk(x) is x


class TestResolve:
    def test_resolve_deep(self):
        b = Bindings()
        x, y = var("X"), var("Y")
        unify(x, struct("f", y), b)
        unify(y, num(1), b)
        assert b.resolve(x) == struct("f", 1)

    def test_is_ground(self):
        b = Bindings()
        x = var("X")
        assert not b.is_ground(struct("f", x))
        unify(x, atom("a"), b)
        assert b.is_ground(struct("f", x))


class TestOccurs:
    def test_direct(self):
        b = Bindings()
        x = var("X")
        assert occurs(x, struct("f", x), b)

    def test_through_binding(self):
        b = Bindings()
        x, y = var("X"), var("Y")
        b.bind(y, struct("g", x))
        assert occurs(x, struct("f", y), b)

    def test_occurs_check_blocks_cyclic(self):
        b = Bindings()
        x = var("X")
        assert not unify(x, struct("f", x), b, occurs_check=True)

    def test_without_check_allows(self):
        b = Bindings()
        x = var("X")
        assert unify(x, struct("f", x), b)
