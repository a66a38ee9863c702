"""Place-category taxonomy: the venue → labeled-place abstraction."""

from .category import AbstractionLevel, Category, CategoryTree, UnknownCategoryError
from .foursquare import DEFAULT_TAXONOMY_SPEC, build_default_taxonomy, root_names

__all__ = [
    "AbstractionLevel",
    "Category",
    "CategoryTree",
    "DEFAULT_TAXONOMY_SPEC",
    "UnknownCategoryError",
    "build_default_taxonomy",
    "root_names",
]
