"""Tests for the category tree."""

import pytest

from repro.sequences import PlaceRef, make_labeler
from repro.taxonomy import AbstractionLevel, CategoryTree, UnknownCategoryError


@pytest.fixture
def tree():
    t = CategoryTree()
    t.add("food", "Eatery")
    t.add("asian", "Asian Restaurant", parent_id="food")
    t.add("thai", "Thai Restaurant", parent_id="asian")
    t.add("chinese", "Chinese Restaurant", parent_id="asian")
    t.add("cafe", "Coffee Shop", parent_id="food")
    t.add("shops", "Shops")
    t.add("grocery", "Supermarket", parent_id="shops")
    return t


class TestBuilding:
    def test_duplicate_id_raises(self, tree):
        with pytest.raises(ValueError):
            tree.add("food", "Other Food")

    def test_duplicate_name_raises(self, tree):
        with pytest.raises(ValueError):
            tree.add("food2", "eatery")  # case-insensitive collision

    def test_missing_parent_raises(self, tree):
        with pytest.raises(UnknownCategoryError):
            tree.add("x", "X", parent_id="nope")

    def test_len_and_iter(self, tree):
        assert len(tree) == 7
        assert {c.category_id for c in tree} == {
            "food", "asian", "thai", "chinese", "cafe", "shops", "grocery"
        }


class TestLookup:
    def test_get_by_id_and_name(self, tree):
        assert tree.get("thai").name == "Thai Restaurant"
        assert tree.get_by_name("thai restaurant").category_id == "thai"

    def test_unknown_raises(self, tree):
        with pytest.raises(UnknownCategoryError):
            tree.get("nope")
        with pytest.raises(UnknownCategoryError):
            tree.get_by_name("nope")

    def test_resolve_prefers_id(self, tree):
        assert tree.resolve("thai").category_id == "thai"
        assert tree.resolve("Thai Restaurant").category_id == "thai"

    def test_contains(self, tree):
        assert "thai" in tree
        assert "nope" not in tree


class TestHierarchy:
    def test_root_of(self, tree):
        assert tree.root_of("thai").name == "Eatery"
        assert tree.root_of("food").name == "Eatery"
        assert tree.root_of("grocery").name == "Shops"

    def test_ancestors_order(self, tree):
        names = [c.name for c in tree.ancestors("thai")]
        assert names == ["Asian Restaurant", "Eatery"]

    def test_descendants(self, tree):
        names = {c.name for c in tree.descendants("food")}
        assert names == {
            "Asian Restaurant", "Thai Restaurant", "Chinese Restaurant", "Coffee Shop"
        }

    def test_roots_and_leaves(self, tree):
        assert {c.name for c in tree.roots()} == {"Eatery", "Shops"}
        assert {c.name for c in tree if c.is_leaf} == {
            "Thai Restaurant", "Chinese Restaurant", "Coffee Shop", "Supermarket"
        }

    def test_depth(self, tree):
        assert len(tree.ancestors("food")) == 0
        assert len(tree.ancestors("asian")) == 1
        assert len(tree.ancestors("thai")) == 2


class TestAbstraction:
    """The labels sessionization gives a place at each abstraction level."""

    def test_root_level(self, tree):
        place = PlaceRef("v1", "thai", "Thai Restaurant")
        assert make_labeler(tree, AbstractionLevel.ROOT)(place) == "Eatery"

    def test_leaf_level(self, tree):
        place = PlaceRef("v1", "thai", "Thai Restaurant")
        assert make_labeler(tree, AbstractionLevel.LEAF)(place) == "Thai Restaurant"


class TestValidation:
    def test_valid_tree_passes(self, tree):
        tree.validate()

    def test_corrupted_child_pointer_detected(self, tree):
        tree.get("food").children_ids.append("ghost")
        with pytest.raises(ValueError):
            tree.validate()

    def test_cycle_detected(self, tree):
        # Manually corrupt parent pointers to create a cycle.
        tree.get("food").parent_id = "thai"
        with pytest.raises(ValueError):
            tree.validate()
