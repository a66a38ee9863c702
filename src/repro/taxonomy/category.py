"""Hierarchical place-category taxonomy.

CrowdWeb's key idea is to abstract raw venues into labeled *places* so that
"Thai Express", "Seasoning Thai" and "Thai Pothong" all contribute to one
"Thai Restaurant" (or, one level up, "Eatery") pattern.  This module provides
the tree structure; :mod:`repro.taxonomy.foursquare` ships a built-in
Foursquare-style instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional

__all__ = [
    "AbstractionLevel",
    "Category",
    "CategoryTree",
    "UnknownCategoryError",
]


class UnknownCategoryError(KeyError):
    """Raised when a category id or name is not present in the tree."""


class AbstractionLevel(Enum):
    """How aggressively venues are abstracted before mining.

    ``VENUE``
        No abstraction: items are raw venue ids (the strawman the paper
        argues against — patterns become invisible).
    ``LEAF``
        Leaf category, e.g. "Thai Restaurant".
    ``ROOT``
        Top-level category, e.g. "Eatery"/"Food" (the paper's crowd view).
    """

    VENUE = "venue"
    LEAF = "leaf"
    ROOT = "root"


@dataclass
class Category:
    """One node in the taxonomy tree."""

    category_id: str
    name: str
    parent_id: Optional[str] = None
    children_ids: List[str] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    @property
    def is_leaf(self) -> bool:
        return not self.children_ids


class CategoryTree:
    """A forest of category hierarchies with id and name lookup.

    Node ids are arbitrary stable strings; names must be unique per tree so
    datasets that only carry names (the Foursquare dump carries both) can be
    resolved too.
    """

    def __init__(self) -> None:
        self._by_id: Dict[str, Category] = {}
        self._by_name: Dict[str, str] = {}

    # ------------------------------------------------------------- building

    def add(self, category_id: str, name: str, parent_id: Optional[str] = None) -> Category:
        """Insert a node; parent must already exist."""
        if category_id in self._by_id:
            raise ValueError(f"duplicate category id {category_id!r}")
        key = name.strip().lower()
        if key in self._by_name:
            raise ValueError(f"duplicate category name {name!r}")
        if parent_id is not None and parent_id not in self._by_id:
            raise UnknownCategoryError(parent_id)
        node = Category(category_id=category_id, name=name, parent_id=parent_id)
        self._by_id[category_id] = node
        self._by_name[key] = category_id
        if parent_id is not None:
            self._by_id[parent_id].children_ids.append(category_id)
        return node

    # -------------------------------------------------------------- lookup

    def get(self, category_id: str) -> Category:
        try:
            return self._by_id[category_id]
        except KeyError:
            raise UnknownCategoryError(category_id) from None

    def get_by_name(self, name: str) -> Category:
        try:
            return self._by_id[self._by_name[name.strip().lower()]]
        except KeyError:
            raise UnknownCategoryError(name) from None

    def __contains__(self, category_id: str) -> bool:
        return category_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Category]:
        return iter(self._by_id.values())

    def resolve(self, id_or_name: str) -> Category:
        """Find a category by id, falling back to name lookup."""
        if id_or_name in self._by_id:
            return self._by_id[id_or_name]
        return self.get_by_name(id_or_name)

    # ----------------------------------------------------------- hierarchy

    def root_of(self, category_id: str) -> Category:
        """The top-level ancestor of a node (the node itself if it is a root)."""
        node = self.get(category_id)
        while node.parent_id is not None:
            node = self._by_id[node.parent_id]
        return node

    def ancestors(self, category_id: str) -> List[Category]:
        """Path from the node's parent up to its root, nearest first."""
        out = []
        node = self.get(category_id)
        while node.parent_id is not None:
            node = self._by_id[node.parent_id]
            out.append(node)
        return out

    def descendants(self, category_id: str) -> List[Category]:
        """All nodes strictly below ``category_id`` (pre-order)."""
        out: List[Category] = []
        stack = list(reversed(self.get(category_id).children_ids))
        while stack:
            node = self._by_id[stack.pop()]
            out.append(node)
            stack.extend(reversed(node.children_ids))
        return out

    def roots(self) -> List[Category]:
        return [c for c in self._by_id.values() if c.is_root]

    def validate(self) -> None:
        """Check structural invariants; raises :class:`ValueError` on corruption."""
        for node in self._by_id.values():
            for child_id in node.children_ids:
                child = self._by_id.get(child_id)
                if child is None:
                    raise ValueError(f"{node.category_id} lists missing child {child_id}")
                if child.parent_id != node.category_id:
                    raise ValueError(f"{child_id} parent pointer disagrees with {node.category_id}")
        # Cycle check: every node must reach a root in <= len(tree) hops.
        limit = len(self._by_id)
        for node in self._by_id.values():
            cur = node
            hops = 0
            while cur.parent_id is not None:
                cur = self._by_id[cur.parent_id]
                hops += 1
                if hops > limit:
                    raise ValueError(f"cycle detected at {node.category_id}")
