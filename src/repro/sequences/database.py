"""The sequence database handed to the miners.

A :class:`SequenceDatabase` is an ordered collection of item sequences — for
CrowdWeb, one sequence per user-day.  Support here always means *relative*
support: the fraction of sequences containing a pattern as a (not
necessarily contiguous) subsequence, matching the paper's
``min_support ∈ {0.25, 0.5, 0.75}`` sweeps.

Interned representation
-----------------------
Internally the database does **not** store item objects.  At build time
every distinct item is interned to a dense integer id through an
:class:`~repro.sequences.vocab.ItemVocab` and all sequences are packed into
one flat ``array('i')`` of ids plus an offsets array (CSR-style): 4 bytes
per occurrence and 4 bytes per sequence boundary, instead of a tuple, a
pointer, and a boxed :class:`TimedItem` per occurrence.  User-day sequences
are short (often one or two items), so the flat layout matters — one
``array`` object *per sequence* would spend more on array headers than on
ids.

The object API (``db[i]``, iteration, ``db.sequences``) is preserved by
decoding on demand (decoded tuples share one item instance per distinct
value, via the vocabulary), so downstream formatting/serving code is
untouched; the miners bypass decoding entirely and consume ``db.encoded`` /
``db.vocab`` directly.
"""

from __future__ import annotations

from array import array
from typing import Dict, Generic, Hashable, Iterable, Iterator, Optional, Sequence, Tuple, TypeVar

from ..data.records import CheckInDataset
from ..taxonomy import AbstractionLevel, CategoryTree
from .items import TimedItem, make_labeler
from .sessions import sessionize_dataset, sessionize_user
from .timebins import HOURLY, TimeBinning
from .vocab import ENCODED_TYPECODE, ItemVocab

__all__ = [
    "SequenceDatabase",
    "is_subsequence",
    "build_user_database",
    "build_all_databases",
]

Item = TypeVar("Item", bound=Hashable)


def is_subsequence(pattern: Sequence, sequence: Sequence) -> bool:
    """True when ``pattern`` occurs in ``sequence`` preserving order
    (gaps allowed).  The empty pattern occurs in every sequence."""
    it = iter(sequence)
    return all(any(item == candidate for candidate in it) for item in pattern)


class SequenceDatabase(Generic[Item]):
    """An immutable list of sequences with support queries.

    ``vocab`` lets many databases share one interning table (the per-user
    databases of a dataset share the dataset-wide vocabulary, so shipping
    them to worker processes moves the vocabulary once, not per user); when
    omitted, a private vocabulary is built from the sequences themselves.
    """

    # __weakref__ lets derived-structure caches (e.g. the mining layer's
    # per-database match index) key weakly on the database itself.
    __slots__ = ("name", "_vocab", "_flat", "_offsets", "_decoded", "__weakref__")

    def __init__(
        self,
        sequences: Iterable[Sequence[Item]],
        name: str = "seqdb",
        vocab: Optional[ItemVocab[Item]] = None,
    ) -> None:
        self.name = name
        if isinstance(sequences, tuple) and all(
            type(seq) is tuple for seq in sequences
        ):
            decoded = sequences  # already canonical: skip the deep re-copy
        else:
            decoded = tuple(tuple(seq) for seq in sequences)
        if vocab is None:
            vocab = ItemVocab(item for seq in decoded for item in seq)
        self._vocab: ItemVocab[Item] = vocab
        flat = array(ENCODED_TYPECODE)
        offsets = array(ENCODED_TYPECODE, [0])
        for seq in decoded:
            flat.extend(vocab.encode_sequence(seq))
            offsets.append(len(flat))
        self._flat: array = flat
        self._offsets: array = offsets
        # Decoded tuples are rebuilt lazily (and share the vocabulary's item
        # instances); the build-time input objects are not retained.
        self._decoded: Optional[Tuple[Tuple[Item, ...], ...]] = None

    @classmethod
    def from_storage(
        cls,
        flat: array,
        offsets: array,
        vocab: ItemVocab[Item],
        name: str = "seqdb",
    ) -> "SequenceDatabase[Item]":
        """Adopt packed storage (flat ids + offsets) without any copy.

        This is the worker-process entry point: the execution layer ships
        the shared vocabulary once per worker and the two compact id arrays
        per task, and rebuilds the database here.
        """
        db = cls.__new__(cls)
        db.name = name
        db._vocab = vocab
        db._flat = flat
        db._offsets = offsets
        db._decoded = None
        return db

    # --------------------------------------------------------------- pickle

    def __getstate__(self):
        # The decoded cache is derived state: drop it so pickles stay small.
        return (self.name, self._vocab, self._flat, self._offsets)

    def __setstate__(self, state) -> None:
        self.name, self._vocab, self._flat, self._offsets = state
        self._decoded = None

    # ------------------------------------------------------------- protocol

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __iter__(self) -> Iterator[Tuple[Item, ...]]:
        return iter(self.sequences)

    def __getitem__(self, i: int) -> Tuple[Item, ...]:
        return self.sequences[i]

    @property
    def sequences(self) -> Tuple[Tuple[Item, ...], ...]:
        """The object view, decoded on demand and cached."""
        decoded = self._decoded
        if decoded is None:
            decode = self._vocab.decode_sequence
            flat, offsets = self._flat, self._offsets
            decoded = self._decoded = tuple(
                decode(flat[offsets[i]:offsets[i + 1]])
                for i in range(len(offsets) - 1)
            )
        return decoded

    # ----------------------------------------------------- interned surface

    @property
    def vocab(self) -> ItemVocab[Item]:
        """The interning table mapping items ↔ dense int ids."""
        return self._vocab

    @property
    def storage(self) -> Tuple[array, array]:
        """The packed representation: (flat id array, offsets array).

        Sequence ``i`` is ``flat[offsets[i]:offsets[i+1]]``.  This is the
        structure that actually lives in memory and travels in pickles.
        """
        return self._flat, self._offsets

    @property
    def encoded(self) -> Tuple[array, ...]:
        """Per-sequence id arrays, materialized on demand (not cached —
        the stored representation is :attr:`storage`)."""
        flat, offsets = self._flat, self._offsets
        return tuple(
            flat[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)
        )

    # -------------------------------------------------------------- queries

    def total_items(self) -> int:
        return len(self._flat)

    def min_count(self, min_support: float) -> int:
        """Absolute sequence count a pattern needs to reach ``min_support``.

        A pattern is frequent when ``count >= ceil(min_support * n)`` with a
        floor of one sequence.
        """
        if not (0.0 < min_support <= 1.0):
            raise ValueError("min_support must be in (0, 1]")
        import math

        return max(1, math.ceil(min_support * len(self)))

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase({self.name!r}: {len(self)} sequences, "
            f"{self.total_items()} items)"
        )


def build_user_database(
    dataset: CheckInDataset,
    user_id: str,
    taxonomy: CategoryTree,
    level: AbstractionLevel = AbstractionLevel.ROOT,
    binning: TimeBinning = HOURLY,
    min_items: int = 1,
    day_kind: str = "all",
) -> SequenceDatabase[TimedItem]:
    """One user's day-per-sequence database at an abstraction level."""
    labeler = make_labeler(taxonomy, level)
    sessions = sessionize_user(dataset, user_id, labeler, binning,
                               min_items=min_items, day_kind=day_kind)
    return SequenceDatabase(
        (s.items for s in sessions), name=f"{dataset.name}/{user_id}/{level.value}"
    )


def build_all_databases(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    level: AbstractionLevel = AbstractionLevel.ROOT,
    binning: TimeBinning = HOURLY,
    min_items: int = 1,
    day_kind: str = "all",
) -> Dict[str, SequenceDatabase[TimedItem]]:
    """Per-user sequence databases for every user in the dataset.

    All databases share one dataset-wide :class:`ItemVocab` (built once from
    every user's sessions, in stable sorted order), so cross-user structures
    — and worker processes — can traffic in one id space.
    """
    labeler = make_labeler(taxonomy, level)
    sessions_by_user = sessionize_dataset(dataset, labeler, binning,
                                          min_items=min_items, day_kind=day_kind)
    vocab: ItemVocab[TimedItem] = ItemVocab(
        item
        for sessions in sessions_by_user.values()
        for s in sessions
        for item in s.items
    )
    return {
        uid: SequenceDatabase(
            tuple(s.items for s in sessions),
            name=f"{dataset.name}/{uid}/{level.value}",
            vocab=vocab,
        )
        for uid, sessions in sessions_by_user.items()
    }
