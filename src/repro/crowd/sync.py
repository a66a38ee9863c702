"""Crowd synchronization: from per-user patterns to who-is-where-when.

Phase 3, step 1 of the framework.  A mined pattern item says *"this user is
at an Eatery around noon"* — a category, not a location.  To place the user
in the city, we ground each pattern item in the user's own history: the
venues they actually visited with that label near that time bin vote for a
microcell, and the modal cell (and venue) becomes the user's expected
location for that bin.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..data.records import CheckInDataset
from ..geo import CellIndex, MicrocellGrid
from ..patterns import UserPatternProfile
from ..sequences import TimeBinning, HOURLY
from ..taxonomy import CategoryTree, UnknownCategoryError

__all__ = ["UserPlacement", "VisitIndex", "place_user"]


@dataclass(frozen=True)
class UserPlacement:
    """One user's expected presence at one time bin."""

    # Crowd timelines materialize one of these per user per window; slots
    # keep the per-record cost flat (no instance __dict__).
    __slots__ = (
        "user_id", "bin", "label", "support", "cell", "venue_id",
        "lat", "lon", "n_evidence",
    )

    user_id: str
    bin: int
    label: str
    support: float
    cell: CellIndex
    venue_id: Optional[str]
    lat: float
    lon: float
    n_evidence: int  # historical check-ins backing this placement

    # With __slots__ the default pickle path restores state via setattr,
    # which the frozen dataclass forbids; route it around the freeze.
    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class VisitIndex:
    """Per-user historical visit evidence, indexed for placement queries.

    Conceptually every check-in is (bin, label-name-set, cell, venue,
    lat/lon), where the label set contains the venue's leaf category plus
    all its taxonomy ancestors — so a pattern item at any abstraction level
    can find its supporting visits with one membership test.

    The storage is interned: labels become bit positions (a record's name
    set is one int bitmask), microcells and venue ids become dense ints
    into shared decode tables, and each user's records live in parallel
    typed arrays.  :meth:`evidence` therefore scans ints and floats only,
    decoding cells/venues back to objects just for the hits it returns.
    """

    __slots__ = ("grid", "binning", "_label_bits", "_cells", "_venues", "_records")

    def __init__(
        self,
        dataset: CheckInDataset,
        grid: MicrocellGrid,
        taxonomy: CategoryTree,
        binning: TimeBinning = HOURLY,
    ) -> None:
        self.grid = grid
        self.binning = binning
        #: label name → bit position in record masks (internal only, never
        #: exposed, so any stable assignment order is fine).
        self._label_bits: Dict[str, int] = {}
        columns = dataset.columns
        # Label names are resolved once per category name, from the first
        # row carrying it, so categories sharing a name share its mask.
        _, first_rows = np.unique(columns.category, return_index=True)
        mask_of_name: Dict[str, int] = {}
        for row in np.sort(first_rows).tolist():
            category_id, category_name = dataset.category_table[columns.category[row]]
            if category_name in mask_of_name:
                continue
            mask = 0
            for name in sorted(self._label_names(taxonomy, category_id, category_name)):
                mask |= 1 << self._label_bits.setdefault(name, len(self._label_bits))
            mask_of_name[category_name] = mask
        category_masks = [mask_of_name.get(name, 0) for _, name in dataset.category_table]
        rows, cols = grid.cell_indexes_clamped(columns.lat, columns.lon)
        cell_keys, cell_codes = np.unique(rows * grid.n_cols + cols, return_inverse=True)
        self._cells: List[CellIndex] = [divmod(key, grid.n_cols) for key in cell_keys.tolist()]
        self._venues: List[str] = list(dataset.venue_table)
        bins = binning.bins_of_seconds(dataset.local_times_us() // 1_000_000 % 86_400)
        # user → (bins, label masks, cell ids, venue ids, lats, lons),
        # parallel per-record arrays in dataset order.
        self._records: Dict[str, Tuple[array, List[int], array, array, array, array]] = {}
        offsets = dataset.user_offsets.tolist()
        for code, user_id in enumerate(dataset.user_table):
            lo, hi = offsets[code], offsets[code + 1]
            self._records[user_id] = (
                array("i", bins[lo:hi].tolist()),
                # Python ints: masks outgrow fixed-width typecodes
                [category_masks[k] for k in columns.category[lo:hi].tolist()],
                array("i", cell_codes.reshape(-1)[lo:hi].tolist()),
                array("i", columns.venue[lo:hi].tolist()),
                array("d", columns.lat[lo:hi].tolist()),
                array("d", columns.lon[lo:hi].tolist()),
            )

    @staticmethod
    def _label_names(
        taxonomy: CategoryTree, category_id: str, category_name: str
    ) -> FrozenSet[str]:
        names = {category_name}
        try:
            node = taxonomy.resolve(category_id or category_name)
            names.add(node.name)
            names.update(a.name for a in taxonomy.ancestors(node.category_id))
        except UnknownCategoryError:
            pass
        return frozenset(names)

    def evidence(
        self, user_id: str, bin_index: int, label: str, tolerance: int = 0
    ) -> List[Tuple[CellIndex, str, float, float]]:
        """Historical visits matching (bin ± tolerance, label) for a user."""
        columns = self._records.get(user_id)
        if columns is None:
            return []
        bit = self._label_bits.get(label)
        if bit is None:
            return []  # label never observed anywhere: nothing can match
        n_bins = self.binning.n_bins
        bins, masks, cell_ids, venue_ids, lats, lons = columns
        cells = self._cells
        venues = self._venues
        hits = []
        for i, rec_bin in enumerate(bins):
            d = abs(rec_bin - bin_index)
            if min(d, n_bins - d) > tolerance:
                continue
            if (masks[i] >> bit) & 1:
                # Boundary decode: only matching records are materialized.
                hits.append((cells[cell_ids[i]], venues[venue_ids[i]], lats[i], lons[i]))
        return hits


def place_user(
    profile: UserPatternProfile,
    index: VisitIndex,
    bin_index: int,
    pattern_tolerance: int = 0,
    evidence_tolerance: int = 1,
    min_support: float = 0.0,
) -> Optional[UserPlacement]:
    """Ground a user's routine at one time bin, or ``None`` when their
    patterns say nothing about that bin.

    ``pattern_tolerance`` widens which pattern items count as active at the
    bin; ``evidence_tolerance`` widens which historical visits ground them.
    When several pattern items are active, the strongest-supported one wins;
    ties break toward more historical evidence.
    """
    best: Optional[UserPlacement] = None
    best_key: Tuple[float, int] = (-1.0, -1)
    for item, pattern in profile.items_at_bin(bin_index, pattern_tolerance):
        if pattern.support < min_support:
            continue
        evidence = index.evidence(profile.user_id, item.bin, item.label, evidence_tolerance)
        if not evidence:
            continue
        cell_votes = Counter(cell for cell, _, _, _ in evidence)
        cell, _ = cell_votes.most_common(1)[0]
        in_cell = [e for e in evidence if e[0] == cell]
        venue_votes = Counter(venue for _, venue, _, _ in in_cell)
        venue_id, _ = venue_votes.most_common(1)[0]
        sample = next(e for e in in_cell if e[1] == venue_id)
        key = (pattern.support, len(evidence))
        if key > best_key:
            best_key = key
            best = UserPlacement(
                user_id=profile.user_id,
                bin=bin_index,
                label=item.label,
                support=pattern.support,
                cell=cell,
                venue_id=venue_id,
                lat=sample[2],
                lon=sample[3],
                n_evidence=len(evidence),
            )
    return best
