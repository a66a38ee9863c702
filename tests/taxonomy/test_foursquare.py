"""Tests for the built-in Foursquare-style taxonomy."""

from repro.sequences import PlaceRef, make_labeler
from repro.taxonomy import (
    DEFAULT_TAXONOMY_SPEC,
    AbstractionLevel,
    build_default_taxonomy,
    root_names,
)


class TestStructure:
    def test_validates(self):
        build_default_taxonomy().validate()

    def test_roots_match_spec(self, taxonomy):
        assert {c.name for c in taxonomy.roots()} == set(root_names())

    def test_paper_labels_present(self, taxonomy):
        # The categories the paper's own examples use.
        for name in ("Eatery", "Shops", "Thai Restaurant"):
            taxonomy.get_by_name(name)

    def test_all_leaves_are_depth_two(self, taxonomy):
        for leaf in (c for c in taxonomy if c.is_leaf):
            assert len(taxonomy.ancestors(leaf.category_id)) == 2

    def test_leaf_count_matches_spec(self, taxonomy):
        spec_leaves = sum(
            len(leaves) for groups in DEFAULT_TAXONOMY_SPEC.values()
            for leaves in groups.values()
        )
        assert sum(c.is_leaf for c in taxonomy) == spec_leaves

    def test_thai_restaurant_roots_to_eatery(self, taxonomy):
        node = taxonomy.get_by_name("Thai Restaurant")
        assert taxonomy.root_of(node.category_id).name == "Eatery"
        place = PlaceRef("v1", node.category_id, node.name)
        assert make_labeler(taxonomy, AbstractionLevel.ROOT)(place) == "Eatery"

    def test_every_root_has_multiple_leaves(self, taxonomy):
        # Flexibility requires choice within every root category.
        for root in taxonomy.roots():
            leaves = [c for c in taxonomy.descendants(root.category_id) if c.is_leaf]
            assert len(leaves) >= 4, root.name

    def test_deterministic_ids(self):
        t1 = build_default_taxonomy()
        t2 = build_default_taxonomy()
        assert sorted(c.category_id for c in t1) == sorted(c.category_id for c in t2)
