"""Sequence items: (time-bin, place-label) pairs, and venue→label mappers.

An *item* is what the miner sees: the paper abstracts each check-in to a
labeled place at a time bin, so "Thai Express at 12:41" becomes
``TimedItem(bin=12, label="Thai Restaurant")`` (or ``"Eatery"`` at root
abstraction).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

from ..data.records import CheckIn
from ..taxonomy import AbstractionLevel, CategoryTree, UnknownCategoryError

__all__ = ["TimedItem", "PlaceRef", "Labeler", "make_labeler"]


class TimedItem(NamedTuple):
    """One mined item: a place label pinned to a time-of-day bin."""

    bin: int
    label: str


class PlaceRef(NamedTuple):
    """The fields of a check-in a labeler may read.

    Sessionization labels each distinct (venue, category) of a dataset
    once, through one of these; a :class:`~repro.data.CheckIn` has the same
    attributes, so labelers take either.
    """

    venue_id: str
    category_id: str
    category_name: str


#: Maps a check-in's venue and category (a :class:`PlaceRef` or a
#: :class:`~repro.data.CheckIn`) to the place label mining will use.
Labeler = Callable[[Union[PlaceRef, CheckIn]], str]


def make_labeler(taxonomy: CategoryTree, level: AbstractionLevel) -> Labeler:
    """Build the venue→label function for an abstraction level.

    * ``VENUE`` — the raw venue id (no abstraction; the strawman).
    * ``LEAF`` — the venue's category name as recorded.
    * ``ROOT`` — the top-level ancestor in the taxonomy.  Categories missing
      from the taxonomy fall back to their recorded name, so real-world data
      with unknown categories degrades gracefully instead of crashing.
    """
    if level is AbstractionLevel.VENUE:
        return lambda checkin: checkin.venue_id
    if level is AbstractionLevel.LEAF:
        return lambda checkin: checkin.category_name

    def root_labeler(checkin: Union[PlaceRef, CheckIn]) -> str:
        try:
            return taxonomy.root_of(taxonomy.resolve(checkin.category_id or checkin.category_name).category_id).name
        except UnknownCategoryError:
            return checkin.category_name

    return root_labeler
